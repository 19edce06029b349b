(* Layered benchmark of the two-stage LBS protocol.

     bench.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>
     bench.exe --smoke

   One run builds a deployment from the seed, does a fixed amount of
   work (sized from --seconds), checks every answer, and prints its
   metrics: the end-to-end set with --trace 0, the per-layer set with
   --trace 1.  The last line of stdout is one JSON object; a correctness
   mismatch exits 1 and prints no result.  See README.md. *)

let workloads = [ "round_fresh"; "serve_churn" ]

(* The fixed work of a run: rounds and single-cell updates.  It grows
   with --seconds and is floored so that every p90 has at least 100
   samples.  serve_churn stops its updates [tail] rounds before the end:
   the tickets admitted after the last update read the final epoch,
   which the sequential oracle can still replay once the service stops.
   The clock never decides how much work a run does.  The toy
   deployment of --smoke runs a handful of rounds. *)
let work ~size ~workload ~seconds =
  match size, workload with
  | Deploy.Toy, "round_fresh" -> 12, 12
  | Deploy.Toy, _ -> 32, 12
  | Deploy.Mid64, "round_fresh" ->
    let r = max 120 (4 * seconds) in
    r, 3 * r
  | Deploy.Mid64, _ ->
    let r = max 280 (8 * seconds) and tail = 40 in
    r, (r - tail) / 2

(* Two fixed loops owned by the benchmark, timed before and after each
   run: a dependent integer chain and eight probes' worth of the
   Probe kernel, each the median of 5 timings.  When two runs of
   identical work disagree, these say whether the host's speed moved.
   They are printed, never reported as metrics. *)
let host_loops_ms () =
  let time f =
    Stats.median
      (Array.init 5 (fun _ ->
           let t0 = Unix.gettimeofday () in
           ignore (Sys.opaque_identity (f ()));
           (Unix.gettimeofday () -. t0) *. 1e3))
  in
  let chain () =
    let x = ref 1 in
    for _ = 1 to 20_000_000 do
      x := ((!x * 1103515245) + 12345) land 0x3fffffff
    done;
    !x
  in
  let p = Probe.create () in
  time chain, time (fun () -> Probe.kernel p (8 * Probe.iterations))

(* Peak resident set of this process (one workload per process). *)
let heap_peak_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb -> kb)
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) scan in
  float_of_int kb /. 1024.

let run_workload ~size ~workload ~seed ~seconds ~trace ~trace_file =
  let seed_s = "perfbench-" ^ string_of_int seed in
  let rounds, updates = work ~size ~workload ~seconds in
  match workload with
  | "round_fresh" -> Fresh.run ~size ~seed:seed_s ~rounds ~updates ~trace ~trace_file
  | "serve_churn" -> Serve.run ~size ~seed:seed_s ~rounds ~updates ~trace ~trace_file
  | w -> invalid_arg ("unknown workload " ^ w)

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.17g" x

let result_json (o : Metric.outcome) =
  let metrics =
    List.map
      (fun (m : Metric.t) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.Metric.name
          (json_number m.Metric.value) m.Metric.unit_)
      o.Metric.metrics
  in
  Printf.sprintf "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    o.Metric.attempted o.Metric.failed (String.concat ", " metrics)

let print_run ~size ~workload ~seed ~seconds ~trace (o : Metric.outcome) before after =
  let params = Deploy.params size ~seed:"" in
  Printf.printf "# workload %s  seed %d (baseline 1, held-out 2)  seconds %d  trace %d\n"
    workload seed seconds (if trace then 1 else 0);
  Printf.printf "# host nproc %d  ocaml %s  profile %s\n"
    (Domain.recommended_domain_count ()) Sys.ocaml_version Build_info.profile;
  Printf.printf "# deployment %s: group %d/%d bits, q_bits %d, public %dx%d, private %dx%d, rmax %d\n"
    (Deploy.size_name size)
    (Lbq_group.Schnorr.p_bits params.Lbq_core.Params.group)
    (Lbq_group.Schnorr.q_bits params.Lbq_core.Params.group)
    params.Lbq_core.Params.q_bits params.Lbq_core.Params.public_rows
    params.Lbq_core.Params.public_cols params.Lbq_core.Params.private_rows
    params.Lbq_core.Params.private_cols params.Lbq_core.Params.rmax;
  List.iter (fun (k, v) -> Printf.printf "# %s %s\n" k v) o.Metric.info;
  Printf.printf "# fail_ratio %.4f (%d of %d rounds)\n"
    (float_of_int o.Metric.failed /. float_of_int (max 1 o.Metric.attempted))
    o.Metric.failed o.Metric.attempted;
  Printf.printf "# host_loops_ms chain/limbs before %.2f/%.2f after %.2f/%.2f\n"
    (fst before) (snd before) (fst after) (snd after);
  List.iter
    (fun (m : Metric.t) ->
      Printf.printf "%-28s %14.4f %-6s n=%d\n" m.Metric.name m.Metric.value m.Metric.unit_
        m.Metric.samples)
    o.Metric.metrics

let one ~size ~workload ~seed ~seconds ~trace ~trace_file =
  let before = host_loops_ms () in
  let o = run_workload ~size ~workload ~seed ~seconds ~trace ~trace_file in
  let o =
    if trace then o
    else
      { o with
        Metric.metrics = o.Metric.metrics @ [ Metric.v "heap_peak_mb" "MB" (heap_peak_mb ()) ] }
  in
  let after = host_loops_ms () in
  print_run ~size ~workload ~seed ~seconds ~trace o before after;
  o

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0
  and smoke = ref false and out_dir = ref (Filename.concat ".bench_build" "traces") in
  Arg.parse
    [ "--workload", Arg.Set_string workload, " one of " ^ String.concat ", " workloads;
      "--seed", Arg.Set_int seed, " workload seed (default 1; 2 is the held-out seed)";
      "--seconds", Arg.Set_int seconds, " nominal run length; sizes the fixed work";
      "--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics";
      "--smoke", Arg.Set smoke, " run every workload at toy size, both trace modes";
      "--out-dir", Arg.Set_string out_dir, " where traced runs write their spans" ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>";
  let rec mkdir_p d =
    if not (Sys.file_exists d) then begin
      mkdir_p (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  mkdir_p !out_dir;
  let trace_file w = Filename.concat !out_dir (Printf.sprintf "trace-%s-seed%d.jsonl" w !seed) in
  try
    if !smoke then
      (Metric.p90_min_samples := 10;
       List.iter
        (fun w ->
          List.iter
            (fun t ->
              let o =
                one ~size:Deploy.Toy ~workload:w ~seed:!seed ~seconds:1 ~trace:t
                  ~trace_file:(trace_file w)
              in
              Printf.printf "SMOKE %s %d %s\n%!" w (if t then 1 else 0) (result_json o))
            [ false; true ])
        workloads)
    else begin
      if not (List.mem !workload workloads) then begin
        prerr_endline ("unknown workload: " ^ !workload);
        exit 2
      end;
      if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
        prerr_endline "--seconds must be >= 1 and --trace 0 or 1";
        exit 2
      end;
      let o =
        one ~size:Deploy.Mid64 ~workload:!workload ~seed:!seed ~seconds:!seconds
          ~trace:(!trace = 1) ~trace_file:(trace_file !workload)
      in
      print_endline (result_json o)
    end
  with Deploy.Mismatch msg ->
    prerr_endline ("correctness check failed: " ^ msg);
    exit 1
