(* Smoke test of the session benchmark: every workload at n <= 64 for
   one session, untraced and traced.  Every metric BENCHMARK.json names
   must be reported with its unit, every session must pass its checks,
   and the traced run's accounting must equal the untraced run's. *)

module Json = Analysis.Json
module M = Session_bench.Measure
module W = Session_bench.Workloads

let benchmark =
  Json.parse (In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all)

let entries key =
  match Option.bind (Json.member key benchmark) Json.get_list with
  | Some l -> l
  | None -> Alcotest.failf "BENCHMARK.json has no %s list" key

let str key j =
  match Option.bind (Json.member key j) Json.get_string with
  | Some s -> s
  | None -> Alcotest.failf "BENCHMARK.json entry without %s" key

let declared key = List.map (fun m -> (str "name" m, str "unit" m)) (entries key)

let run w ~traced = M.run ~size:W.Small w ~seed:1 ~seconds:0.0 ~traced

let value (r : M.result) name =
  match List.find_opt (fun (m : M.metric) -> m.name = name) r.metrics with
  | Some m -> m.value
  | None -> Alcotest.failf "%s: metric %s missing" r.workload name

let check_run (r : M.result) key =
  Alcotest.(check (list string)) (r.workload ^ ": no failed session") [] r.failures;
  Alcotest.(check bool) (r.workload ^ ": correct") true (M.correct r);
  List.iter
    (fun (name, unit_) ->
      match List.find_opt (fun (m : M.metric) -> m.name = name) r.metrics with
      | Some m -> Alcotest.(check string) (r.workload ^ ": unit of " ^ name) unit_ m.unit_
      | None -> Alcotest.failf "%s: metric %s missing" r.workload name)
    (declared key);
  (* The one-line result carries exactly the four keys. *)
  match Json.parse (Session_bench.Report.result_line r) with
  | Json.Obj kvs ->
    Alcotest.(check (list string)) "result keys" [ "correct"; "attempted"; "failed"; "metrics" ]
      (List.map fst kvs)
  | _ -> Alcotest.fail "result line is not an object"

let test_workload w () =
  let plain = run w ~traced:false in
  let traced = run w ~traced:true in
  check_run plain "end_to_end";
  check_run traced "per_layer";
  Alcotest.(check (float 0.0)) "success_ratio" 1.0 (value plain "success_ratio");
  Alcotest.(check (float 0.0)) "traced bits = untraced bits"
    (value plain "bits_per_session")
    (8.0 *. value traced "transport.submit_bytes");
  Alcotest.(check (float 0.0)) "submits = messages"
    (value traced "net.messages")
    (value traced "transport.submit_calls")

let test_workload_names () =
  Alcotest.(check (list string)) "workloads"
    (List.map (fun (w : W.t) -> w.name) W.all)
    (List.map (str "name") (entries "workloads"))

let () =
  Alcotest.run "session benchmark"
    [ ( "smoke",
        Alcotest.test_case "workload names" `Quick test_workload_names
        :: List.map (fun (w : W.t) -> Alcotest.test_case w.name `Quick (test_workload w)) W.all )
    ]
