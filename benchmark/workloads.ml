(* The four session workloads.

   A workload turns [--seed] into a fixed list of prepared sessions.  All
   inputs — input bits, simulated PKE instances, circuits, KDF payloads,
   corruption sets, protocol seeds — are generated by [prepare], which
   the measurement loop times as set-up.  A session's [run] is the timed part
   ([Net.create] through the protocol's return); it hands back a
   [finished] whose [check] the loop calls after the timer stops:
   outputs against the functionality, then bits/messages/rounds/locality
   against the protocol's [cost_spec]. *)

module Net = Netsim.Net
module Costs = Analysis.Costs

type exec = Sequential | Pool of Util.Pool.t

(* Executor constructors: in-process and a two-domain pool. *)
let sequential () = Sequential
let pool2 () = Pool (Util.Pool.create ~num_domains:1 ())
let stop = function Sequential -> () | Pool p -> Util.Pool.shutdown p

type finished = { net : Net.t; check : unit -> (unit, string) result }
type session = { run : Probe.t option -> exec -> finished }
type size = Full | Small

type t = {
  name : string;
  seeds : int;  (** length of the seed list at [Full] size; [Small] uses 1 *)
  main : unit -> exec;  (** the timed executor *)
  alt : (unit -> exec) option;  (** an alternative the traced run compares it against *)
  prepare : size -> (Util.Prng.t * int) array -> session array;
      (** one session per entry of the seed list: (input stream, protocol seed) *)
}

let spec_check ?(env = Costs.env []) spec net =
  let v =
    Costs.check ~locality:(Net.max_locality net) env spec ~bits:(Net.total_bits net)
      ~messages:(Net.messages_sent net) ~rounds:(Net.rounds net)
  in
  if v.Costs.ok then Ok ()
  else Error (String.concat "; " (("cost mismatch " ^ spec.Costs.name) :: v.Costs.detail))

let ( >>= ) r f = match r with Ok () -> f () | Error _ as e -> e
let require cond msg = if cond then Ok () else Error msg

let draw_seed rng = Int64.to_int (Util.Prng.bits64 rng) land 0x3FFF_FFFF_FFFF

let bits rng n = Array.init n (fun _ -> Util.Prng.int rng 2)

(* Algorithm 3 (Theorem 1) on a parity circuit. *)
let alg3 =
  let prepare size streams =
    let n, h = match size with Full -> (1024, 256) | Small -> (32, 8) in
    let params = Mpc.Params.make ~n ~h ~lambda:8 ~alpha:2 () in
    let circuit = Circuit.parity ~n in
    let corruption = Netsim.Corruption.none ~n in
    Array.map
      (fun (rng, seed) ->
        let pke =
          Crypto.Pke.make_simulated ~lwe_params:Crypto.Pke.bench_lwe_params ~seed:(draw_seed rng) ()
        in
        let inputs = bits rng n in
        let config = { Mpc.Mpc_abort.params; pke; circuit; input_width = 1 } in
        let expected = Mpc.Mpc_abort.expected_output config ~inputs in
        let spec =
          Mpc.Mpc_abort.cost_spec ~pke
            ~depth:(Const (Circuit.depth circuit))
            ~input_width:(Const 1)
            ~out_bits:(Const (Circuit.num_outputs circuit))
            ~n:(Const n) ~lambda:(Const 8)
        in
        {
          run =
            (fun probe _exec ->
              let net = Probe.create_net probe n in
              let obs = Costs.Obs.create () in
              let outs =
                Mpc.Mpc_abort.run ~obs net (Util.Prng.create seed) config ~corruption ~inputs
                  ~adv:Mpc.Mpc_abort.honest_adv
              in
              let check () =
                require
                  (Array.for_all
                     (function
                       | Mpc.Outcome.Output b -> Bytes.equal b expected
                       | Mpc.Outcome.Abort _ -> false)
                     outs)
                  "alg3: a party aborted or output the wrong parity"
                >>= fun () -> spec_check ~env:(Costs.env ~obs []) spec net
              in
              { net; check });
        })
      streams
  in
  { name = "alg3"; seeds = 8; main = sequential; alt = None; prepare }

(* All-to-all broadcast, fingerprinted variant: E9's hot loop. *)
let a2a_fp =
  let len = 64 in
  let prepare size streams =
    let n, h = match size with Full -> (512, 256) | Small -> (32, 16) in
    let params = Mpc.Params.make ~n ~h ~lambda:8 ~alpha:2 () in
    let participants = List.init n Fun.id in
    let corruption = Netsim.Corruption.none ~n in
    let spec =
      Mpc.All_to_all.cost_spec ~variant:Mpc.All_to_all.Fingerprinted ~k:(Const n)
        ~idsum:(Const (Costs.varint_sum_ids participants))
        ~len:(Const len) ~n:(Const n) ~lambda:(Const 8)
    in
    Array.map
      (fun (rng, seed) ->
        let key = draw_seed rng in
        let inputs =
          Array.init n (fun i ->
              Crypto.Kdf.expand
                ~key:(Bytes.of_string (Printf.sprintf "%d/%d" key i))
                ~info:"a2a-fp" len)
        in
        {
          run =
            (fun probe exec ->
              let pool = match exec with Pool p -> Some p | Sequential -> None in
              let net = Probe.create_net probe n in
              let outs =
                Mpc.All_to_all.run ?pool net (Util.Prng.create seed) params
                  ~variant:Mpc.All_to_all.Fingerprinted ~participants ~input:(Array.get inputs)
                  ~corruption ~adv:Mpc.All_to_all.honest_adv
              in
              let check () =
                let view_ok = function
                  | Mpc.Outcome.Output view ->
                    List.map fst view = participants
                    && List.for_all (fun (i, v) -> Bytes.equal v inputs.(i)) view
                  | Mpc.Outcome.Abort _ -> false
                in
                require
                  (List.length outs = n && List.for_all (fun (_, o) -> view_ok o) outs)
                  "a2a-fp: a party aborted or output a wrong input vector"
                >>= fun () -> spec_check spec net
              in
              { net; check });
        })
      streams
  in
  { name = "a2a-fp"; seeds = 4; main = sequential; alt = Some pool2; prepare }

(* GMW on a majority circuit: 6-byte messages over 34 rounds at n = 128. *)
let gmw =
  let prepare size streams =
    let n = match size with Full -> 128 | Small -> 16 in
    let circuit = Circuit.majority ~n in
    let corruption = Netsim.Corruption.none ~n in
    let spec = Mpc.Gmw.cost_spec ~circuit ~input_width:1 ~n:(Const n) in
    Array.map
      (fun (rng, seed) ->
        let inputs = bits rng n in
        let expected =
          Mpc.Bitpack.pack
            (Circuit.eval circuit (Circuit.pack_inputs ~width:1 (Array.to_list inputs)))
        in
        {
          run =
            (fun probe _exec ->
              let net = Probe.create_net probe n in
              let outs =
                Mpc.Gmw.run net (Util.Prng.create seed) ~circuit ~input_width:1 ~inputs
                  ~corruption ~adv:Mpc.Gmw.honest_adv
              in
              let check () =
                require
                  (Array.for_all (Bytes.equal expected) outs)
                  "gmw: a party output the wrong majority"
                >>= fun () -> spec_check spec net
              in
              { net; check });
        })
      streams
  in
  { name = "gmw"; seeds = 4; main = sequential; alt = None; prepare }

(* Algorithm 5 (SparseNetwork) on the sparse backend, random corruption.
   Outcomes are folded as they stream out of [run_iter], as the giant
   tier does, so no neighbour set outlives its callback and peak RSS is
   the protocol's: a union-find over honest edges (each joined at its
   higher endpoint), the largest neighbour set and the abort count. *)
let sparse =
  let prepare size streams =
    let n, h = match size with Full -> (10_000, 2_500) | Small -> (64, 16) in
    let params = Mpc.Params.make ~n ~h ~lambda:8 ~alpha:2 () in
    let cap = Mpc.Params.sparse_degree params + Mpc.Params.degree_bound params in
    let spec =
      Mpc.Sparse_network.cost_spec ~n:(Const n) ~h:(Const h) ~lambda:(Const 8) ~alpha:(Const 2)
    in
    Array.map
      (fun (rng, seed) ->
        let corruption = Netsim.Corruption.random rng ~n ~h in
        let honest = Netsim.Corruption.is_honest corruption in
        {
          run =
            (fun probe _exec ->
              let net = Probe.create_net probe ~backend:Net.Sparse n in
              let parent = Array.init n Fun.id in
              let rec find i =
                if parent.(i) = i then i
                else begin
                  let r = find parent.(i) in
                  parent.(i) <- r;
                  r
                end
              in
              let aborts = ref 0 and max_degree = ref 0 in
              Mpc.Sparse_network.run_iter net (Util.Prng.create seed) params ~corruption
                ~adv:Mpc.Sparse_network.honest_adv ~f:(fun i -> function
                | Mpc.Outcome.Abort _ -> incr aborts
                | Mpc.Outcome.Output s ->
                  max_degree := max !max_degree (Util.Iset.cardinal s);
                  if honest i then
                    Util.Iset.iter
                      (fun j ->
                        if j < i && honest j then begin
                          let ri = find i and rj = find j in
                          if ri <> rj then parent.(ri) <- rj
                        end)
                      s);
              let check () =
                let honest_ids = Netsim.Corruption.honest_list corruption in
                let root = find (List.hd honest_ids) in
                require (!aborts = 0) "sparse: a party aborted in an honest run"
                >>= fun () -> require (!max_degree <= cap) "sparse: a neighbour set exceeds d + 2d"
                >>= fun () ->
                require
                  (List.for_all (fun i -> find i = root) honest_ids)
                  "sparse: the honest subgraph is disconnected"
                >>= fun () -> spec_check spec net
              in
              { net; check });
        })
      streams
  in
  { name = "sparse"; seeds = 2; main = sequential; alt = None; prepare }

let all = [ alg3; a2a_fp; gmw; sparse ]
let find name = List.find_opt (fun w -> w.name = name) all

(* The seed list.  Session [i]'s inputs come from a stream keyed by
   [--seed], the workload's name and [i]; its protocol coins come from a
   seed keyed by the name and [i] alone.  Every run therefore elects the
   same committees and samples the same graphs — the same work, and for
   the exact-size protocols the same bits — while [--seed] varies the
   input bits, PKE instances, KDF payloads and corruption sets. *)
let seed_list w size ~seed =
  let key = Hashtbl.hash w.name in
  let inputs = Util.Prng.derive (Util.Prng.create seed) ~key in
  let coins = Util.Prng.derive (Util.Prng.create 0) ~key in
  let k = match size with Full -> w.seeds | Small -> 1 in
  Array.init k (fun i ->
      (Util.Prng.derive inputs ~key:i, draw_seed (Util.Prng.derive coins ~key:i)))
