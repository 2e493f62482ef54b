(* Session benchmark.

     run.exe --workload NAME [--seed S] [--seconds T] [--trace 0|1]
             [--json FILE] [--trace-out FILE]
         one workload in this process; prints every metric with its unit,
         then one JSON line {correct, attempted, failed, metrics}.
         --trace 0 reports the end-to-end metrics, --trace 1 the
         per-layer metrics of a separate traced run.  --json writes the
         run's record (quartiles, sample counts); --trace-out writes
         Chrome trace-event JSON (traced runs only).
     run.exe --all [--repeat R] [--seed S] [--seconds T] [--trace 0|1]
             [--json FILE] [--trace-out FILE]
         every workload R times (default 3), each run in a fresh child
         process so peak RSS is per workload, merged into one result set:
         per metric the median over the R runs and their quartiles.
     run.exe --compare A.json B.json [--benchmark BENCHMARK.json]
         one row per (workload, end-to-end metric) against its bound;
         exit 1 on a worse row, a missing workload or metric, or more
         failed sessions in B.
     run.exe --list

   Exit status: 0 when every session passed its checks, 1 otherwise, 2
   on a usage error. *)

module W = Session_bench.Workloads
module Measure = Session_bench.Measure
module Report = Session_bench.Report
module Json = Analysis.Json

let usage () =
  prerr_endline
    "usage: run.exe (--workload NAME | --all [--repeat R]\n\
    \                | --compare A.json B.json | --list)\n\
    \       [--seed S] [--seconds T] [--trace 0|1] [--json FILE] [--trace-out FILE]";
  exit 2

(* Chrome process id: the workload's position in [W.all], from 1. *)
let pid_of (w : W.t) =
  1 + Option.value ~default:0 (List.find_index (fun (x : W.t) -> x.name = w.name) W.all)

let run_one (w : W.t) ~seed ~seconds ~traced ~json ~trace_out =
  let r = Measure.run w ~seed ~seconds ~traced in
  Report.print_human r ~seed ~seconds;
  Option.iter
    (fun path -> Report.write_file path (Json.to_string ~pretty:true (Report.detail_json r)))
    json;
  Option.iter
    (fun path ->
      let events = Report.chrome_events ~pid:(pid_of w) r in
      Report.write_file path (Json.to_string (Report.chrome_json events)))
    trace_out;
  print_endline (Report.result_line r);
  exit (if Measure.correct r then 0 else 1)

(* One child run of [w]: whether it exited 0, its record, and its trace
   events when [with_trace]. *)
let child (w : W.t) ~seed ~seconds ~traced ~with_trace =
  let part = Filename.temp_file ("session-bench-" ^ w.name) ".json" in
  let trace_part = Filename.temp_file ("session-bench-" ^ w.name) ".trace.json" in
  let args =
    [ Sys.executable_name; "--workload"; w.name; "--seed"; string_of_int seed; "--seconds";
      Printf.sprintf "%g" seconds; "--trace"; (if traced then "1" else "0"); "--json"; part ]
    @ if with_trace then [ "--trace-out"; trace_part ] else []
  in
  flush stdout;
  let pid =
    Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin Unix.stdout
      Unix.stderr
  in
  let exited_ok = snd (Unix.waitpid [] pid) = Unix.WEXITED 0 in
  let parse path =
    try Some (Json.parse (Report.read_file path)) with Sys_error _ | Json.Parse_error _ -> None
  in
  let detail = parse part in
  let events =
    Option.value ~default:[]
      (Option.bind (parse trace_part) (fun j ->
           Option.bind (Json.member "traceEvents" j) Json.get_list))
  in
  List.iter Sys.remove [ part; trace_part ];
  (exited_ok, detail, events)

let run_all ~seed ~seconds ~traced ~repeat ~json ~trace_out =
  let ok = ref true and events = ref [] in
  let merged =
    List.map
      (fun (w : W.t) ->
        let details =
          List.init repeat (fun r ->
              let with_trace = r = 0 && trace_out <> None in
              let exited_ok, detail, evs = child w ~seed ~seconds ~traced ~with_trace in
              if not exited_ok then ok := false;
              events := !events @ evs;
              detail)
          |> List.filter_map Fun.id
        in
        if List.length details < repeat then begin
          ok := false;
          Printf.printf "%s: %d of %d runs wrote no record\n" w.name
            (repeat - List.length details)
            repeat
        end;
        Report.merge_runs ~workload:w.name ~traced details)
      W.all
  in
  let set = Report.set_json ~seed ~seconds ~traced ~repeat merged in
  Report.print_set set;
  Option.iter (fun p -> Report.write_file p (Json.to_string ~pretty:true set)) json;
  Option.iter
    (fun p -> Report.write_file p (Json.to_string (Report.chrome_json !events)))
    trace_out;
  if not !ok then print_endline "at least one run failed";
  exit (if !ok then 0 else 1)

let () =
  let workload = ref None and all = ref false and list = ref false in
  let compare = ref [] and benchmark = ref "BENCHMARK.json" in
  let seed = ref 1 and seconds = ref 25.0 and trace = ref 0 in
  let repeat = ref 3 and json = ref None and trace_out = ref None in
  let some r = Arg.String (fun s -> r := Some s) in
  let spec =
    [ ("--workload", some workload, "NAME run one workload");
      ("--all", Arg.Set all, " run every workload, one child process per run");
      ("--repeat", Arg.Set_int repeat, "R with --all: runs per workload (default 3)");
      ( "--compare",
        Arg.Tuple
          [ Arg.String (fun a -> compare := [ a ]);
            Arg.String (fun b -> compare := !compare @ [ b ]) ],
        "A B compare two --all result sets" );
      ("--benchmark", Arg.Set_string benchmark, "FILE bounds for --compare");
      ("--seed", Arg.Set_int seed, "S seed of the input lists (default 1)");
      ("--seconds", Arg.Set_float seconds, "T measured time per run (default 25)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--json", some json, "FILE write the run's record or the result set");
      ("--trace-out", some trace_out, "FILE write Chrome trace-event JSON");
      ("--list", Arg.Set list, " list the workloads") ]
  in
  (try Arg.parse_argv Sys.argv spec (fun _ -> usage ()) "run.exe"
   with Arg.Bad msg | Arg.Help msg ->
     prerr_string msg;
     exit 2);
  if (!trace <> 0 && !trace <> 1) || !repeat < 1 then usage ();
  match (!workload, !all, !compare, !list) with
  | None, false, [], true -> List.iter (fun (w : W.t) -> print_endline w.name) W.all
  | None, false, [ a; b ], false -> exit (Report.compare ~benchmark:!benchmark a b)
  | None, true, [], false ->
    run_all ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1) ~repeat:!repeat ~json:!json
      ~trace_out:!trace_out
  | Some name, false, [], false -> (
    match W.find name with
    | Some w ->
      run_one w ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1) ~json:!json
        ~trace_out:!trace_out
    | None ->
      Printf.eprintf "unknown workload %S\n" name;
      exit 2)
  | _ -> usage ()
