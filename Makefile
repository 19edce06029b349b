# Convenience targets; everything is plain dune underneath.

.PHONY: all build test test-fast check oracle-guard bench bench-quick clean

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
# (powm/faults/pir/ot/keypool/backends/batch/update/serve): same code
# paths and assertions as the full suites, toy sizes,
# BENCH_*.quick.json artifacts.  It also checks the bench floors on the
# numbers as the suites compute them, and exits 1 if one fails: powm
# speedup >= 1.5x and kernel words/op <= 256, batch k>=4 >= 0.94x and
# k=8 >= 1.1x, incremental update >= 5x, serve multi/single >= 1.0x.
bench-quick:
	dune exec bench/main.exe -- quick 1

# Test-only code stays out of shipped code: fails if any dune file under
# lib/ or bin/ names the test-only libraries (lbq_oracle in test/oracle,
# lbq_testutil in test/testutil) or the alcotest framework.
oracle-guard:
	@if grep -rln --include=dune -e lbq_oracle -e lbq_testutil -e alcotest lib bin; then \
	  echo "oracle-guard: the dune file(s) above link test-only code FAIL"; \
	  exit 1; \
	fi
	@echo "  oracle-guard: no dune file under lib/ or bin/ names lbq_oracle, lbq_testutil or alcotest OK"

# The oracle guard, then the tier-1 gate plus the bench smoke: builds
# everything, runs the full test suite, and drives every bench suite
# once at toy parameters, which fails on any bench assertion or floor
# (see bench-quick).  Last, the layered benchmark's smoke run
# (perfbench/run.py --smoke): it must still build against the library
# functions it calls, and every workload's answer checks must pass.
check:
	$(MAKE) oracle-guard
	dune build @all
	dune runtest
	$(MAKE) bench-quick
	python3 perfbench/run.py --smoke

# Benchmarks run under the release profile (flambda-style optimisation,
# no assertions stripped that matter here) so timings reflect deployment:
# the limb-engine suite (fused vs reference Montgomery kernels, stage-1
# table kernels checked against Z.mod_pow_naive; BENCH_powm.json), the
# transport fault sweep, and the stage-1, stage-2, offline/online,
# backend-arena, batched-respond, serving-layer and streaming-update
# suites that emit BENCH_ot.json, BENCH_pir.json, BENCH_keypool.json,
# BENCH_backends.json, BENCH_batch.json, BENCH_serve.json and
# BENCH_update.json.  The update suite exits 1 below its 10x floor.
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
