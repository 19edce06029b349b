# Convenience targets; everything is plain dune underneath.

.PHONY: all build test test-fast check bench bench-quick clean

all: build

build:
	dune build @all

test:
	dune runtest

# Fast inner loop: only the cross-backend differential arena
# (test_backends), the suite most likely to catch a backend regression.
test-fast:
	dune build @backends

# Tiny-parameter smoke of every JSON-emitting bench suite
# (powm/faults/pir/ot/keypool/backends/batch/serve/update): same code
# paths and assertions as the full suites, toy sizes,
# BENCH_*.quick.json artifacts.
bench-quick:
	dune exec bench/main.exe -- quick 1

# The tier-1 gate plus the bench smoke: builds everything, runs the full
# test suite, drives every bench suite once at toy parameters, and
# gates on the bench summaries — the limb-engine floor (powm speedup +
# allocation budget, from BENCH_powm.quick.json), the serving-layer
# floor (multi-domain q/s >= single-domain q/s, from
# BENCH_serve.quick.json), the batching floor (batched respond >=
# sequential q/s at some k >= 4 on every backend, from
# BENCH_batch.quick.json), and the streaming-update floor (incremental
# CRT fix-up >= 5x a full rebuild after the byte-identity gate, from
# BENCH_update.quick.json).  Last, the layered benchmark's smoke run
# (perfbench/run.py --smoke): it must still build against the library
# functions it calls, and every workload's answer checks must pass.
check:
	dune build @all
	dune runtest
	$(MAKE) bench-quick
	dune exec bench/main.exe -- powm-guard
	dune exec bench/main.exe -- serve-guard
	dune exec bench/main.exe -- batch-guard
	dune exec bench/main.exe -- update-guard
	python3 perfbench/run.py --smoke

# Benchmarks run under the release profile (flambda-style optimisation,
# no assertions stripped that matter here) so timings reflect deployment:
# the transport fault sweep plus the stage-1, stage-2, offline/online,
# backend-arena, batched-respond and serving-layer suites that emit
# BENCH_ot.json, BENCH_pir.json, BENCH_keypool.json,
# BENCH_backends.json, BENCH_batch.json and BENCH_serve.json.
bench:
	dune build --profile release bench/main.exe
	dune exec --profile release bench/main.exe -- powm 5
	dune exec --profile release bench/main.exe -- faults 2
	dune exec --profile release bench/main.exe -- pir 3
	dune exec --profile release bench/main.exe -- ot 3
	dune exec --profile release bench/main.exe -- keypool 3
	dune exec --profile release bench/main.exe -- backends 5
	dune exec --profile release bench/main.exe -- batch 5
	dune exec --profile release bench/main.exe -- serve 6
	dune exec --profile release bench/main.exe -- update 3

clean:
	dune clean
