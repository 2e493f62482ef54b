(* Benchmark harness: regenerates every quantitative claim of the paper as
   experiments E1-E14 (see Experiments and EXPERIMENTS.md), and diffs or
   audits saved JSON reports.  Run with --help for the flags and --list
   for the experiments, their tiers and their sweeps.

   Communication complexity is measured per the paper's definition (§3.1):
   bits sent by all parties in an honest execution. *)

open Runner

(* --audit FILE: re-check a saved report against the symbolic cost specs
   without re-running any protocol.  Two kinds of checks:
   - any record carrying predicted_* fields is checked for internal
     consistency (measured bits within [lo, hi], messages/rounds equal);
   - E7 and E8 records are re-derived from the closed-form specs even
     when the report predates the predicted_* fields (the giant
     baselines): trial count is parsed from the series label, E7's
     per-trial sparse-network spec is scaled by it (giant tier runs
     alpha = 2, the full tier alpha = 3), and E8's network-free Monte
     Carlo gets the zero spec.
   Exits 1 on any mismatch so CI can gate dated baselines on it. *)
let load path =
  try Io.load path with
  | Sys_error msg ->
    Printf.eprintf "error: %s\n" msg;
    exit 1
  | Failure msg | Analysis.Json.Parse_error msg ->
    Printf.eprintf "error: %s is not a bench report: %s\n" path msg;
    exit 1

let audit_report path =
  let rep = load path in
  let checked = ref 0 and mismatched = ref 0 and skipped = ref 0 in
  let scan fmt s = try Some (Scanf.sscanf s fmt (fun k -> k)) with _ -> None in
  List.iter
    (fun (r : Io.run) ->
      let check_against (t : Costs.totals) =
        incr checked;
        let complain fmt =
          Printf.ksprintf
            (fun msg ->
              incr mismatched;
              Printf.printf "MISMATCH %s / %s (n=%d h=%d): %s\n" r.experiment r.series r.n r.h msg)
            fmt
        in
        if r.bits < t.bits_lo || r.bits > t.bits_hi then
          complain "bits %d outside predicted [%d, %d]" r.bits t.bits_lo t.bits_hi;
        if r.messages <> t.messages then
          complain "messages %d <> predicted %d" r.messages t.messages;
        if r.rounds <> t.rounds then complain "rounds %d <> predicted %d" r.rounds t.rounds
      in
      let scale k (t : Costs.totals) =
        { Costs.bits_hi = k * t.bits_hi; bits_lo = k * t.bits_lo; messages = k * t.messages;
          rounds = k * t.rounds }
      in
      match r.experiment with
      | "E7" -> (
        let sparse alpha =
          Costs.totals (Costs.env []) Experiments.(sparse_spec (params ~alpha r.n r.h))
        in
        match (scan "giant %d-trial total" r.series, scan "%d-trial total" r.series) with
        | Some k, _ -> check_against (scale k (sparse 2))
        | None, Some k -> check_against (scale k (sparse 3))
        | None, None -> incr skipped)
      | "E8" ->
        (* Network-free Monte Carlo: every counter must be zero. *)
        check_against zero_totals
      | _ -> (
        match (r.predicted_bits, r.predicted_messages, r.predicted_rounds) with
        | Some hi, Some m, Some rr ->
          check_against
            { Costs.bits_hi = hi; bits_lo = Option.value r.predicted_bits_lo ~default:hi;
              messages = m; rounds = rr }
        | _ -> incr skipped))
    rep.Io.runs;
  Printf.printf
    "audited %s: %d run records, %d checked against specs, %d without predictions, %d \
     mismatches\n"
    path (List.length rep.Io.runs) !checked !skipped !mismatched;
  if !checked = 0 then begin
    Printf.eprintf "error: nothing to audit — no record carries predictions or a closed form\n";
    exit 1
  end;
  exit (if !mismatched > 0 then 1 else 0)

(* --diff A B: regression-diff two saved reports; exit 1 on accounting
   drift so CI can gate on it (wall-clock changes alone do not fail). *)
let diff_reports a b =
  let matched, drifted = Io.print_diff ~before:(load a) ~after:(load b) in
  if matched = 0 then begin
    Printf.eprintf
      "error: no comparable runs between %s and %s — the reports cover disjoint \
       experiment/series/n/h keys (e.g. a --quick report diffed against a full-tier one)\n"
      a b;
    exit 1
  end;
  exit (if drifted > 0 then 1 else 0)

let iso_date () =
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1) tm.Unix.tm_mday

let usage =
  "usage: main.exe [options]\n\n\
   Runs the default sweep (E1-E14, pool-micro, fp-micro) unless --only, --list,\n\
   --diff or --audit says otherwise.  Exit status: 0 ok; 1 a failed spec check,\n\
   soak violation, accounting drift or usage error; 2 a --max-wall-s or\n\
   --max-rss-mb budget overrun.\n\n\
   options:"

let () =
  let tier = ref Base and only = ref None and list = ref false and json = ref None in
  let diff = ref None and audit = ref None and jobs = ref 1 in
  let max_wall_s = ref None and max_rss_mb = ref None in
  let bad fmt = Printf.ksprintf (fun msg -> raise (Arg.Bad msg)) fmt in
  let set_tier t () =
    if !tier <> Base && !tier <> t then
      bad "--huge and --giant select disjoint tiers; pick one";
    tier := t
  in
  let some r v = r := Some v and a = ref "" in
  let specs =
    Arg.align
      [
        ("--only", Arg.String (some only), "ID run one experiment or mode (see --list)");
        ("--list", Arg.Set list, " list experiments with their tiers and sweep points");
        ("--quick", Arg.Set quick, " reduced sweeps and trial counts (the CI tier)");
        ("--huge", Arg.Unit (set_tier Huge), " huge tier: n up to 2048, one run at a time");
        ( "--giant",
          Arg.Unit (set_tier Giant),
          " giant tier: n up to 10^6, outcomes streamed through run_iter" );
        ( "--async",
          Arg.Set async_mode,
          " add the event-transport rows (E1/E6/E9); with --only soak, async cases" );
        ( "--jobs",
          Arg.String
            (fun s ->
              jobs :=
                match (s, int_of_string_opt s) with
                | "max", _ -> Util.Pool.default_num_domains () + 1
                | _, Some j when j >= 1 -> j
                | _ -> bad "--jobs expects a positive integer or \"max\", got %S" s),
          "N|max executors for base/async sweep points and soak schedules (default 1; max = all \
           cores)" );
        ("--json", Arg.String (some json), "FILE also write a JSON report to FILE");
        ("--max-wall-s", Arg.Float (some max_wall_s), "S exit 2 if total wall-clock exceeds S s");
        ("--max-rss-mb", Arg.Float (some max_rss_mb), "M exit 2 if peak RSS (VmHWM) exceeds M MB");
        ( "--diff",
          Arg.Tuple [ Arg.Set_string a; Arg.String (fun b -> diff := Some (!a, b)) ],
          " A B: diff report B against report A (exit 1 on accounting drift)" );
        ("--audit", Arg.String (some audit), "FILE re-check a saved report against the cost specs");
        ("--seed", Arg.Int (some base_seed), "S replay seed for every experiment RNG and PKE");
        ("--schedules", Arg.Int (some Experiments.soak_schedules), "K soak: schedules to sweep");
        ("--schedule", Arg.Int (some Experiments.soak_schedule), "K soak: replay one schedule");
      ]
  in
  (try
     Arg.parse_argv Sys.argv specs (bad "unexpected argument %S") usage
   with
  | Arg.Help msg ->
    print_string msg;
    exit 0
  | Arg.Bad msg ->
    prerr_string msg;
    exit 1);
  (* The protocol hot loops are allocation-heavy (one short-lived message,
     selection, and reader per pair), and in OCaml 5 every minor
     collection is a stop-the-world with real syscall cost.  A 8M-word
     minor heap turns thousands of minor collections per huge-tier
     experiment into tens; space_overhead 200 keeps the major GC off the
     hot path for the same reason.  The giant tier inverts both choices:
     its footprint is long-lived party state, not message churn, so a
     lower space_overhead buys headroom — and the runtime reserves
     address space for Max_domains x minor_heap_size up front, so the
     8M-word heap alone would reserve ~8GB and trip the CI smoke's
     address-space ulimit.  Accounting (bits/messages/rounds) is
     GC-independent, so dated baselines are unaffected except wall_ms and
     peak_rss_mb.  Set before the pool exists. *)
  (if !tier = Giant then
     Gc.set { (Gc.get ()) with Gc.minor_heap_size = 1 lsl 20; Gc.space_overhead = 80 }
   else Gc.set { (Gc.get ()) with Gc.minor_heap_size = 1 lsl 23; Gc.space_overhead = 200 });
  match (!diff, !audit) with
  | Some (a, b), _ -> diff_reports a b
  | None, Some path -> audit_report path
  | None, None when !list -> List.iter describe Experiments.registry
  | None, None ->
    let selected =
      match !only with
      | None ->
        (* A huge or giant run covers the experiments with sweeps at that
           scale; anything else can still be named with --only, and then
           runs its default sweep. *)
        List.filter
          (fun e -> not e.opt_in && (!tier = Base || has_tier !tier e))
          Experiments.registry
      | Some id -> (
        match List.filter (fun e -> e.id = id) Experiments.registry with
        | [] ->
          Printf.eprintf "error: unknown experiment id %S; valid ids: %s\n" id
            (String.concat " " (List.map (fun e -> e.id) Experiments.registry));
          exit 1
        | sel -> sel)
    in
    if !jobs > 1 then pool := Some (Util.Pool.create ~num_domains:(!jobs - 1) ());
    let t0 = Unix.gettimeofday () in
    let results =
      List.map
        (fun e ->
          let s = Unix.gettimeofday () in
          let out = run_experiment !tier e in
          let ms = 1000.0 *. (Unix.gettimeofday () -. s) in
          Printf.printf "[%.1fs]\n%!" (ms /. 1000.0);
          (e.id, ms, out))
        selected
    in
    let total_wall_ms = 1000.0 *. (Unix.gettimeofday () -. t0) in
    Option.iter Util.Pool.shutdown !pool;
    Printf.printf "\nall experiments done in %.1fs (jobs=%d)%s\n" (total_wall_ms /. 1000.0) !jobs
      (match (!tier, !quick) with
      | Huge, true -> " (huge smoke tier)"
      | Huge, false -> " (huge tier)"
      | Giant, true -> " (giant smoke tier)"
      | Giant, false -> " (giant tier)"
      | _, true -> " (quick tier)"
      | _, false -> "");
    Option.iter
      (fun path ->
        let report =
          {
            Io.date = iso_date ();
            quick = !quick;
            jobs = !jobs;
            total_wall_ms;
            experiment_wall_ms = List.map (fun (id, ms, _) -> (id, ms)) results;
            runs = List.concat_map (fun (_, _, o) -> o.runs) results;
          }
        in
        Io.save path report;
        Printf.printf "wrote %d run records to %s\n" (List.length report.runs) path)
      !json;
    (match !max_wall_s with
    | Some budget when total_wall_ms > 1000.0 *. budget ->
      Printf.eprintf "wall-clock budget exceeded: %.1fs > %.1fs (at jobs=%d)\n"
        (total_wall_ms /. 1000.0) budget !jobs;
      exit 2
    | _ -> ());
    Option.iter
      (fun budget ->
        (* The hard memory gate for CI's giant smoke: VmHWM is the
           process-wide high-water, so it bounds every run above.  Where
           /proc is unavailable the budget cannot be checked — warn and
           pass rather than fail a platform; the Linux CI lane is the
           enforcing one. *)
        match Io.peak_rss_mb () with
        | Some peak when peak > budget ->
          Printf.eprintf "peak-RSS budget exceeded: %.0fMB > %.0fMB\n" peak budget;
          exit 2
        | Some peak -> Printf.printf "peak RSS %.0fMB within budget %.0fMB\n" peak budget
        | None -> Printf.eprintf "warning: --max-rss-mb set but /proc/self/status is unreadable\n")
      !max_rss_mb;
    (* Failing at the very end lets a full run report every failed check
       rather than dying at the first. *)
    let failed = List.fold_left (fun a (_, _, o) -> a + o.failed) 0 results in
    if failed > 0 then begin
      Printf.eprintf
        "%d failed check(s): a cost spec disagrees with the measured accounting (COST MISMATCH \
         above) or a soak predicate was violated\n"
        failed;
      exit 1
    end
