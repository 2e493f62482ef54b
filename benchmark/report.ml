(* Output: the one-line result, the human-readable listing, per-run
   detail records and the result sets [--all] merges them into, Chrome
   trace events, and [--compare]. *)

module Json = Analysis.Json

let schema = "session-bench/1"

(* The last line of a run: exactly correct/attempted/failed/metrics. *)
let result_line (r : Measure.result) =
  let metric (m : Measure.metric) =
    (m.name, Json.Obj [ ("value", Json.Float m.value); ("unit", Json.String m.unit_) ])
  in
  Json.to_string
    (Json.Obj
       [ ("correct", Json.Bool (Measure.correct r)); ("attempted", Json.Int r.attempted);
         ("failed", Json.Int r.failed); ("metrics", Json.Obj (List.map metric r.metrics)) ])

let print_human (r : Measure.result) ~seed ~seconds =
  Printf.printf "== %s (%s, seed %d, %g s): %d sessions attempted, %d failed\n" r.workload
    (if r.traced then "traced" else "untraced")
    seed seconds r.attempted r.failed;
  List.iter (Printf.printf "   FAILED %s\n") r.failures;
  List.iter
    (fun (m : Measure.metric) ->
      Printf.printf "  %-26s %14.6g %-6s q1 %-12.6g q3 %-12.6g n=%d\n" m.name m.value m.unit_
        m.q1 m.q3 m.samples)
    r.metrics

(* ---- JSON files ---- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let field name conv j = Option.bind (Json.member name j) conv
let float_field name j = Option.value (field name Json.get_float j) ~default:nan
let metrics_of j = match Json.member "metrics" j with Some (Json.Obj ms) -> ms | _ -> []
let workloads_of set = Option.value (field "workloads" Json.get_list set) ~default:[]
let workload_of w = Option.value (field "workload" Json.get_string w) ~default:"?"

let metric_json (m : Measure.metric) =
  Json.Obj
    [ ("value", Json.Float m.value); ("unit", Json.String m.unit_); ("q1", Json.Float m.q1);
      ("q3", Json.Float m.q3); ("samples", Json.Int m.samples) ]

(* One run's record: [--json] of a single-workload run. *)
let detail_json (r : Measure.result) =
  Json.Obj
    [ ("workload", Json.String r.workload); ("traced", Json.Bool r.traced);
      ("correct", Json.Bool (Measure.correct r)); ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ("failures", Json.List (List.map (fun s -> Json.String s) r.failures));
      ( "metrics",
        Json.Obj (List.map (fun (m : Measure.metric) -> (m.name, metric_json m)) r.metrics) ) ]

(* A workload's runs within a result set: per metric the median over
   the runs and the runs' quartiles; each run's own record rides along. *)
let merge_runs ~workload ~traced details =
  let per_run =
    List.map (fun d -> List.map (fun (k, m) -> (k, float_field "value" m)) (metrics_of d)) details
  in
  let names = match per_run with v :: _ -> List.map fst v | [] -> [] in
  let summary name = Measure.summarize name (List.filter_map (List.assoc_opt name) per_run) in
  let sum key =
    List.fold_left (fun acc d -> acc + Option.value (field key Json.get_int d) ~default:0) 0 details
  in
  let correct =
    details <> [] && List.for_all (fun d -> field "correct" Json.get_bool d = Some true) details
  in
  Json.Obj
    [ ("workload", Json.String workload); ("traced", Json.Bool traced);
      ("correct", Json.Bool correct); ("attempted", Json.Int (sum "attempted"));
      ("failed", Json.Int (sum "failed"));
      ("metrics", Json.Obj (List.map (fun name -> (name, metric_json (summary name))) names));
      ("runs", Json.List details) ]

let set_json ~seed ~seconds ~traced ~repeat workloads =
  let tm = Unix.gmtime (Unix.time ()) in
  Json.Obj
    [ ("schema", Json.String schema);
      ( "date",
        Json.String
          (Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.tm_year + 1900) (tm.tm_mon + 1)
             tm.tm_mday tm.tm_hour tm.tm_min tm.tm_sec) );
      ("seed", Json.Int seed); ("seconds", Json.Float seconds); ("traced", Json.Bool traced);
      ("repeat", Json.Int repeat); ("workloads", Json.List workloads) ]

let print_set set =
  let t =
    Analysis.Table.create ~title:"result set: median over runs (quartiles over runs)"
      ~columns:[ "workload"; "metric"; "median"; "unit"; "q1"; "q3"; "runs" ]
  in
  let num key m = Printf.sprintf "%.6g" (float_field key m) in
  List.iter
    (fun w ->
      List.iter
        (fun (k, m) ->
          Analysis.Table.add_row t
            [ workload_of w; k; num "value" m;
              Option.value (field "unit" Json.get_string m) ~default:""; num "q1" m; num "q3" m;
              string_of_int (Option.value (field "samples" Json.get_int m) ~default:0) ])
        (metrics_of w))
    (workloads_of set);
  Analysis.Table.print t

(* ---- Chrome trace events ---- *)

let us ns = Json.Float (float_of_int ns *. 1e-3)
let ms s = Json.Float (s *. 1e3)

let span ~pid ~name ~start ~stop ~origin args =
  Json.Obj
    [ ("name", Json.String name); ("ph", Json.String "X"); ("pid", Json.Int pid);
      ("tid", Json.Int 1); ("ts", us (start - origin)); ("dur", us (stop - start));
      ("args", Json.Obj args) ]

let round_spans ~pid ~origin ~sid i (rd : Probe.round) =
  let common =
    [ sid; ("round", Json.Int (i + 1)); ("messages", Json.Int rd.messages);
      ("bytes", Json.Int rd.bytes) ]
  in
  let c0, c1 = rd.compute in
  span ~pid ~name:"compute" ~start:c0 ~stop:c1 ~origin
    (common
    @ [ ("compute_ms", ms (Probe.round_compute_s rd));
        ("submit_ms", ms (Probe.corrected rd.submit_ns rd.messages)) ])
  ::
  (match rd.advance with
  | Some (a0, a1) ->
    [ span ~pid ~name:"advance" ~start:a0 ~stop:a1 ~origin
        (common @ [ ("deliver_ms", ms (Probe.corrected rd.deliver_ns rd.messages)) ]) ]
  | None -> [])

(* One process track per workload: session spans, each covering its
   per-round compute and advance spans. *)
let chrome_events ~pid (r : Measure.result) =
  let origin = match r.sessions with s :: _ -> s.Measure.start_ns | [] -> 0 in
  let meta name value =
    Json.Obj
      [ ("name", Json.String name); ("ph", Json.String "M"); ("pid", Json.Int pid);
        ("tid", Json.Int 1); ("args", Json.Obj [ ("name", Json.String value) ]) ]
  in
  meta "process_name" r.workload
  :: meta "thread_name" "sessions"
  :: List.concat_map
       (fun (s : Measure.traced_session) ->
         let sid = ("session", Json.Int s.index) in
         span ~pid ~name:"session" ~start:s.start_ns ~stop:s.stop_ns ~origin
           [ sid; ("seed", Json.Int s.seed_index) ]
         :: List.concat (List.mapi (round_spans ~pid ~origin ~sid) (Probe.rounds s.probe)))
       r.sessions

let chrome_json events =
  Json.Obj [ ("traceEvents", Json.List events); ("displayTimeUnit", Json.String "ms") ]

(* ---- --compare ---- *)

type bound = { metric : string; lower_is_better : bool; bound : float }

let bounds_of_benchmark path =
  let entry m =
    match
      ( field "name" Json.get_string m,
        field "better" Json.get_string m,
        field "bound" Json.get_float m )
    with
    | Some metric, Some better, Some bound -> { metric; lower_is_better = better = "lower"; bound }
    | _ -> failwith ("malformed end_to_end entry in " ^ path)
  in
  match field "end_to_end" Json.get_list (Json.parse (read_file path)) with
  | Some ms -> List.map entry ms
  | None -> failwith ("no end_to_end list in " ^ path)

type side = { value : float; spread : float }

let side m =
  let value = float_field "value" m in
  let spread = if value = 0.0 then 0.0 else (float_field "q3" m -. float_field "q1" m) /. value in
  { value; spread = Float.abs spread }

let relative_change a b =
  if a.value = 0.0 then (if b.value = 0.0 then 0.0 else Float.copy_sign infinity b.value)
  else (b.value -. a.value) /. Float.abs a.value

type verdict = Better | Same | Worse | Unresolved

let verdict_name = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "WORSE"
  | Unresolved -> "unresolved"

(* Worse or better only by more than the bound, and only when neither
   side's spread over its runs is wider than the bound. *)
let judge bd a b =
  let worsening = (if bd.lower_is_better then 1.0 else -1.0) *. relative_change a b in
  if Float.max a.spread b.spread > bd.bound then Unresolved
  else if worsening > bd.bound then Worse
  else if worsening < -.bd.bound then Better
  else Same

(* Bits are a function of the seed list alone, so between two sets made
   from the same [--seed] they must not move at all.  Their bound in
   BENCHMARK.json is wider only because the fingerprint residues' encoded
   size varies with the input data from one seed to another. *)
let exact_on_same_seed = [ "bits_per_session" ]

(* Prints one row per (workload, end-to-end metric); returns the exit
   code: 1 on any worse row, a workload or metric missing from either
   side, or more failed sessions in [b] than in [a]. *)
let compare ~benchmark a_path b_path =
  let bounds = bounds_of_benchmark benchmark in
  let a_set = Json.parse (read_file a_path) and b_set = Json.parse (read_file b_path) in
  let load set = List.map (fun w -> (workload_of w, w)) (workloads_of set) in
  let a = load a_set and b = load b_set in
  let seed set = field "seed" Json.get_int set in
  let same_seed = seed a_set <> None && seed a_set = seed b_set in
  let bounds =
    List.map
      (fun bd ->
        if same_seed && List.mem bd.metric exact_on_same_seed then { bd with bound = 0.0 } else bd)
      bounds
  in
  let failed w = Option.value (field "failed" Json.get_int w) ~default:0 in
  let t =
    Analysis.Table.create
      ~title:(Printf.sprintf "%s -> %s" a_path b_path)
      ~columns:
        [ "workload"; "metric"; "A"; "B"; "change"; "spread A"; "spread B"; "bound"; "verdict" ]
  in
  let pct x = Printf.sprintf "%.2f%%" (100.0 *. x) in
  let bad = ref false in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name a) then begin
        bad := true;
        Printf.printf "workload %s is missing from %s\n" name a_path
      end)
    b;
  List.iter
    (fun (name, wa) ->
      match List.assoc_opt name b with
      | None ->
        bad := true;
        Printf.printf "workload %s is missing from %s\n" name b_path
      | Some wb ->
        if failed wb > failed wa then begin
          bad := true;
          Printf.printf "%s: %d failed sessions in B, %d in A\n" name (failed wb) (failed wa)
        end;
        List.iter
          (fun bd ->
            let ma = List.assoc_opt bd.metric (metrics_of wa)
            and mb = List.assoc_opt bd.metric (metrics_of wb) in
            match (ma, mb) with
            | Some ma, Some mb ->
              let sa = side ma and sb = side mb in
              let v = judge bd sa sb in
              if v = Worse then bad := true;
              Analysis.Table.add_row t
                [ name; bd.metric; Printf.sprintf "%.6g" sa.value; Printf.sprintf "%.6g" sb.value;
                  Printf.sprintf "%+.2f%%" (100.0 *. relative_change sa sb); pct sa.spread;
                  pct sb.spread; Printf.sprintf "%g%%" (100.0 *. bd.bound); verdict_name v ]
            | _ ->
              bad := true;
              Printf.printf "%s: metric %s is missing from %s\n" name bd.metric
                (if ma = None then a_path else b_path))
          bounds)
    a;
  Analysis.Table.print t;
  if !bad then 1 else 0
