(* The experiment registry and its row runner.

   Every experiment is one [experiment] record: an id, a one-line
   description, and either blocks of sweeps or a free-form mode (the
   bechamel micro-suites, soak, cost-audit).  A block belongs to one
   tier, and the tier decides how its points run:

   - [Base] (the default full/--quick sweep) and [Async] (the --async
     extra rows) fan their points out over the domain pool.  Each point
     is an independent, seed-deterministic job whose results land in
     point order, so tables and records are identical at any --jobs.
   - [Huge] and [Giant] run few very large points one at a time on the
     main domain, whatever --jobs says: each protocol round is a
     sequential loop over its parties.

   The tier also picks the network a row builds through [net]: the
   synchronous transport, or the adversarially scheduled event transport
   ([Async]).

   A row meters its work with [measure], which times it, asserts every
   network it meters against the protocol's cost spec (summed over the
   row's trials), and builds the row's [Analysis.Bench_io.run] record.
   Records and failed checks collect in the job's [ctx] and come back as
   the block's [outcome]; main exits 1 at the end if any check failed. *)

module Io = Analysis.Bench_io
module Costs = Analysis.Costs
module Net = Netsim.Net

let fmt_bits = Analysis.Table.fmt_bits

(* Startup settings: each is set once from the command line before any
   job runs, so reading them from worker domains is race-free. *)
let quick = ref false
let pick ~full ~reduced = if !quick then reduced else full

(* The worker pool; [None] (--jobs 1) is the pure sequential path. *)
let pool : Util.Pool.t option ref = ref None

let par_list xs f =
  match !pool with
  | None -> List.map f xs
  | Some p -> Array.to_list (Util.Pool.map_jobs p (Array.of_list xs) f)

(* --seed S: every experiment's internal seed constant [k] is remapped
   through [seed_of] (identity without --seed, so default reports stay
   byte-identical), threaded into RNG and simulated PKE construction, and
   recorded in each run record's optional [seed] field. *)
let base_seed : int option ref = ref None
let seed_of k = match !base_seed with None -> k | Some s -> (s * 0x3779F1) lxor k
let prng k = Util.Prng.create (seed_of k)

let sim_pke seed =
  Crypto.Pke.make_simulated ~lwe_params:Crypto.Pke.bench_lwe_params ~seed:(seed_of seed) ()

type tier = Base | Huge | Giant | Async

(* --async: Async blocks re-run representative rows on the event
   transport at this fixed config.  The protocol deadline is the
   transport's fairness span: every in-flight message lands within [span]
   ticks of submission, so honest async runs still produce outputs. *)
let async_mode = ref false

let async_cfg =
  {
    Netsim.Event_net.latency = Netsim.Event_net.Uniform (1, 3);
    horizon = 1;
    scheduler = Netsim.Event_net.Adversarial { hold = 0.25 };
  }

let async_deadline = Netsim.Event_net.span async_cfg

(* One job's view of the runner: the tier it runs under, and the records
   and failed checks its [measure] calls produced (newest first). *)
type ctx = { tier : tier; mutable runs : (Io.run * Costs.totals) list; mutable failed : int }

let new_ctx tier = { tier; runs = []; failed = 0 }

(* A network of [n] parties on the tier's transport; [seed] keys the
   async delivery schedule. *)
let net ctx ~seed n =
  match ctx.tier with
  | Base | Huge | Giant -> Net.create n
  | Async ->
    let rng = Util.Prng.derive (prng seed) ~key:0xA5ED in
    Net.create ~transport:(Netsim.Event_net.transport ~rng async_cfg) n

let deadline ctx = if ctx.tier = Async then async_deadline else 1

(* Assert [net]'s counters against [spec] evaluated at [env]: bits within
   the declared slack and messages exact; on a synchronous transport also
   rounds and the spec's locality formula.  Async rounds depend on the
   delivery schedule, so there the async rounds table reports them as an
   informational delta instead.  Returns the totals and the verdict. *)
let check_spec ?(async = false) net spec env =
  let t = Costs.totals env spec in
  let v =
    Costs.check
      ?locality:(if async then None else Some (Net.max_locality net))
      env spec ~bits:(Net.total_bits net) ~messages:(Net.messages_sent net)
      ~rounds:(if async then t.Costs.rounds else Net.rounds net)
  in
  if not v.Costs.ok then begin
    Printf.eprintf "COST MISMATCH [%s%s]:\n" spec.Costs.name (if async then ", async" else "");
    List.iter (Printf.eprintf "  %s\n") v.Costs.detail
  end;
  (t, v.Costs.ok)

let zero_totals = { Costs.bits_hi = 0; bits_lo = 0; messages = 0; rounds = 0 }

let add_totals (a : Costs.totals) (b : Costs.totals) =
  {
    Costs.bits_hi = a.bits_hi + b.bits_hi;
    bits_lo = a.bits_lo + b.bits_lo;
    messages = a.messages + b.messages;
    rounds = a.rounds + b.rounds;
  }

let timed f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, 1000.0 *. (Unix.gettimeofday () -. t0))

(* [measure ctx ~experiment ~series ~n ~h f] times [f check] and records
   one run.  [f] calls [check net spec env] once per network it metered
   (once per trial in trial-summed rows); the record carries the summed
   counters and predictions.  A row that meters nothing (E8's
   network-free Monte Carlo) records zero counters against the zero spec.
   Async records get a " (async)" series suffix, so --diff only matches
   them against other async reports, and no rounds prediction. *)
let measure ctx ~experiment ~series ~n ~h f =
  let async = ctx.tier = Async in
  let bits = ref 0 and messages = ref 0 and rounds = ref 0 in
  let predicted = ref zero_totals in
  let check net spec env =
    let t, ok = check_spec ~async net spec env in
    if not ok then ctx.failed <- ctx.failed + 1;
    bits := !bits + Net.total_bits net;
    messages := !messages + Net.messages_sent net;
    rounds := !rounds + Net.rounds net;
    predicted := add_totals !predicted t
  in
  let v, wall_ms = timed (fun () -> f check) in
  let p = !predicted in
  let run =
    {
      Io.experiment;
      series = (if async then series ^ " (async)" else series);
      n;
      h;
      bits = !bits;
      messages = !messages;
      rounds = !rounds;
      wall_ms;
      seed = !base_seed;
      peak_rss_mb = Io.peak_rss_mb ();
      predicted_bits = Some p.bits_hi;
      predicted_bits_lo = Some p.bits_lo;
      predicted_messages = Some p.messages;
      predicted_rounds = (if async then None else Some p.rounds);
    }
  in
  ctx.runs <- (run, p) :: ctx.runs;
  (v, run)

(* ---- the registry ---- *)

(* A sweep: the points each tier size runs, the row run at every point,
   and the printer of the rows' results (in point order).  [label] and
   [show] describe the points for --list. *)
type sweep =
  | Sweep : {
      label : string;
      show : 'p -> string;
      full : 'p list;
      quick : 'p list;
      row : ctx -> 'p -> 'r;
      print : 'r list -> unit;
    }
      -> sweep

(* A block: one tier's section of an experiment.  [intro] is printed
   under the section title, [outro] after the last sweep's table. *)
type block = { tier : tier; title : string; intro : string; sweeps : sweep list; outro : string }

type outcome = { runs : Io.run list; failed : int }

let no_runs = { runs = []; failed = 0 }
let merge a b = { runs = a.runs @ b.runs; failed = a.failed + b.failed }

type body =
  | Blocks of block list
  | Mode of { doc : string list; run : unit -> outcome }
      (** a free-form experiment; [doc] lines are its --list entry *)

(* [opt_in] experiments run only when named by --only. *)
type experiment = { id : string; desc : string; opt_in : bool; body : body }

let has_tier tier e =
  match e.body with Blocks bs -> List.exists (fun b -> b.tier = tier) bs | Mode _ -> false

(* The blocks [e] runs under a tier selection: an experiment with no
   block of the selected huge/giant tier runs its default sweep instead,
   and --async adds the async rows to a default-sweep run. *)
let blocks_for tier bs =
  let of_tier t = List.filter (fun b -> b.tier = t) bs in
  match of_tier tier with
  | _ :: _ as own when tier <> Base -> own
  | _ -> of_tier Base @ if !async_mode then of_tier Async else []

let section title = Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let table ~title ~columns cells rows =
  let t = Analysis.Table.create ~title ~columns in
  List.iter (fun r -> Analysis.Table.add_row t (cells r)) rows;
  Analysis.Table.print t

let fit_line label points =
  let ms =
    List.map
      (fun (x, bits) -> { Analysis.Complexity.x = float_of_int x; value = float_of_int bits })
      points
  in
  let f, j = Analysis.Complexity.fit_with_polylog ms in
  Printf.printf "%s: fitted exponent %.2f (x polylog^%d, r2=%.3f)\n" label
    f.Analysis.Complexity.exponent j f.Analysis.Complexity.r2

(* The async tier's table: rounds to completion on the event transport
   next to the synchronous closed form. *)
let async_rounds_table runs =
  table
    ~title:
      (Printf.sprintf "async rounds-to-completion vs sync closed form (%s)"
         (Netsim.Event_net.config_to_string async_cfg))
    ~columns:[ "series"; "n"; "rounds"; "sync form"; "delta" ]
    (fun ((r : Io.run), (p : Costs.totals)) ->
      [ r.series; string_of_int r.n; string_of_int r.rounds; string_of_int p.rounds;
        Printf.sprintf "%+d" (r.rounds - p.rounds) ])
    runs

let run_sweep tier (Sweep s) =
  let job p =
    let ctx = new_ctx tier in
    let r = s.row ctx p in
    (ctx, r)
  in
  let points = if !quick then s.quick else s.full in
  let results =
    match tier with Huge | Giant -> List.map job points | Base | Async -> par_list points job
  in
  s.print (List.map snd results);
  List.map fst results

let run_block b =
  section b.title;
  print_string b.intro;
  let ctxs = List.concat_map (run_sweep b.tier) b.sweeps in
  let runs = List.concat_map (fun (c : ctx) -> List.rev c.runs) ctxs in
  if b.tier = Async then async_rounds_table runs;
  print_string b.outro;
  { runs = List.map fst runs; failed = List.fold_left (fun a (c : ctx) -> a + c.failed) 0 ctxs }

let run_experiment tier e =
  match e.body with
  | Mode m -> m.run ()
  | Blocks bs -> List.fold_left (fun acc b -> merge acc (run_block b)) no_runs (blocks_for tier bs)

let tier_name = function Base -> "full" | Huge -> "huge" | Giant -> "giant" | Async -> "async"

(* --list: every experiment with the tiers it covers and each sweep's
   points, read from the registry. *)
let describe e =
  Printf.printf "%-4s %s\n" e.id e.desc;
  let tiers =
    match e.body with
    | _ when e.opt_in -> [ Printf.sprintf "opt-in (--only %s)" e.id ]
    | Mode _ -> [ "full quick" ]
    | Blocks bs ->
      List.sort_uniq compare (List.map (fun b -> b.tier) bs)
      |> List.map (function Base -> "full quick" | t -> tier_name t)
  in
  Printf.printf "       tiers: %s\n" (String.concat " " tiers);
  match e.body with
  | Mode m -> List.iter (Printf.printf "       %s\n") m.doc
  | Blocks bs ->
    List.iter
      (fun b ->
        List.iter
          (fun (Sweep s) ->
            let full = String.concat " " (List.map s.show s.full)
            and quick = String.concat " " (List.map s.show s.quick) in
            Printf.printf "       %-6s %s: %s%s\n" (tier_name b.tier) s.label full
              (if quick = full then "" else Printf.sprintf " (--quick: %s)" quick))
          b.sweeps)
      bs

(* ---- bechamel ---- *)

let bench name f = Bechamel.Test.make ~name (Bechamel.Staged.stage f)

(* [ns_per_op ~group tests] — bechamel OLS ns/op estimate per test, keyed
   ["group/name"] and sorted by key.  Runs on the calling domain and
   ignores --jobs: concurrent load would distort the estimates. *)
let ns_per_op ~group tests =
  let open Bechamel in
  let cfg =
    Benchmark.cfg
      ~limit:(pick ~full:1000 ~reduced:200)
      ~stabilize:false
      ~quota:(Time.second (pick ~full:0.25 ~reduced:0.05))
      ()
  in
  let clock = Toolkit.Instance.monotonic_clock in
  let raw = Benchmark.all cfg [ clock ] (Test.make_grouped ~name:group ~fmt:"%s/%s" tests) in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  Hashtbl.fold
    (fun name r acc ->
      (name, match Analyze.OLS.estimates r with Some (e :: _) -> e | _ -> nan) :: acc)
    (Analyze.all ols clock raw) []
  |> List.sort compare
