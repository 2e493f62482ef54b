(* Tests for the synchronous point-to-point network simulator. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let msg s = Bytes.of_string s

let test_basic_send_recv () =
  let net = Netsim.Net.create 3 in
  Netsim.Net.send net ~src:0 ~dst:1 (msg "hello");
  Netsim.Net.send net ~src:2 ~dst:1 (msg "world");
  (* Nothing delivered before the round boundary. *)
  checki "empty before step" 0 (List.length (Netsim.Net.peek net ~dst:1));
  Netsim.Net.step net;
  let received = Netsim.Net.recv net ~dst:1 in
  checki "two messages" 2 (List.length received);
  checkb "from 0" true (List.mem (0, msg "hello") received);
  checkb "from 2" true (List.mem (2, msg "world") received);
  (* recv drains. *)
  checki "drained" 0 (List.length (Netsim.Net.recv net ~dst:1))

let test_delivery_order_deterministic () =
  let net = Netsim.Net.create 4 in
  Netsim.Net.send net ~src:2 ~dst:0 (msg "b");
  Netsim.Net.send net ~src:1 ~dst:0 (msg "a");
  Netsim.Net.send net ~src:1 ~dst:0 (msg "a2");
  Netsim.Net.step net;
  let received = Netsim.Net.recv net ~dst:0 in
  Alcotest.(check (list (pair int string)))
    "sorted by sender, then send order"
    [ (1, "a"); (1, "a2"); (2, "b") ]
    (List.map (fun (s, b) -> (s, Bytes.to_string b)) received)

let test_recv_from () =
  let net = Netsim.Net.create 3 in
  Netsim.Net.send net ~src:0 ~dst:2 (msg "x");
  Netsim.Net.send net ~src:1 ~dst:2 (msg "y");
  Netsim.Net.step net;
  Alcotest.(check (list string)) "only from 1" [ "y" ]
    (List.map Bytes.to_string (Netsim.Net.recv_from net ~dst:2 ~src:1));
  (* The other message is still queued. *)
  Alcotest.(check (list string)) "from 0 remains" [ "x" ]
    (List.map Bytes.to_string (Netsim.Net.recv_from net ~dst:2 ~src:0))

let test_recv_drains_everything () =
  (* recv takes the whole inbox: a recv_from in the same round finds
     nothing left, for any sender. *)
  let net = Netsim.Net.create 3 in
  Netsim.Net.send net ~src:0 ~dst:2 (msg "x");
  Netsim.Net.send net ~src:1 ~dst:2 (msg "y");
  Netsim.Net.step net;
  checki "recv returns both" 2 (List.length (Netsim.Net.recv net ~dst:2));
  checki "recv_from src 0 after recv" 0 (List.length (Netsim.Net.recv_from net ~dst:2 ~src:0));
  checki "recv_from src 1 after recv" 0 (List.length (Netsim.Net.recv_from net ~dst:2 ~src:1));
  checki "peek after recv" 0 (List.length (Netsim.Net.peek net ~dst:2))

let test_recv_from_leaves_other_senders () =
  (* recv_from drains exactly one sender's bucket; the rest of the inbox
     survives, in delivery order, and a later recv returns it. *)
  let net = Netsim.Net.create 4 in
  Netsim.Net.send net ~src:1 ~dst:0 (msg "a");
  Netsim.Net.send net ~src:2 ~dst:0 (msg "b");
  Netsim.Net.send net ~src:3 ~dst:0 (msg "c");
  Netsim.Net.send net ~src:1 ~dst:0 (msg "a2");
  Netsim.Net.step net;
  Alcotest.(check (list string)) "only src 2" [ "b" ]
    (List.map Bytes.to_string (Netsim.Net.recv_from net ~dst:0 ~src:2));
  Alcotest.(check (list (pair int string)))
    "others intact, in delivery order"
    [ (1, "a"); (1, "a2"); (3, "c") ]
    (List.map (fun (s, b) -> (s, Bytes.to_string b)) (Netsim.Net.recv net ~dst:0));
  checki "second recv_from empty" 0 (List.length (Netsim.Net.recv_from net ~dst:0 ~src:2))

let test_recv_one () =
  (* recv_one = recv_from matched against a one-element list: Some on a
     singleton, None otherwise, draining the sender's bucket either way. *)
  let net = Netsim.Net.create 4 in
  Netsim.Net.send net ~src:1 ~dst:0 (msg "a");
  Netsim.Net.send net ~src:2 ~dst:0 (msg "b1");
  Netsim.Net.send net ~src:2 ~dst:0 (msg "b2");
  Netsim.Net.step net;
  Alcotest.(check (option string))
    "singleton -> Some" (Some "a")
    (Option.map Bytes.to_string (Netsim.Net.recv_one net ~dst:0 ~src:1));
  Alcotest.(check (option string))
    "two queued -> None" None
    (Option.map Bytes.to_string (Netsim.Net.recv_one net ~dst:0 ~src:2));
  (* Both buckets drained, whatever the answer was. *)
  checki "src 1 drained" 0 (List.length (Netsim.Net.recv_from net ~dst:0 ~src:1));
  checki "src 2 drained" 0 (List.length (Netsim.Net.recv_from net ~dst:0 ~src:2));
  Alcotest.(check (option string))
    "silent sender -> None" None
    (Option.map Bytes.to_string (Netsim.Net.recv_one net ~dst:0 ~src:3));
  checki "inbox empty" 0 (List.length (Netsim.Net.peek net ~dst:0))

let test_self_send_rejected () =
  let net = Netsim.Net.create 2 in
  checkb "raises" true
    (try
       Netsim.Net.send net ~src:1 ~dst:1 (msg "me");
       false
     with Invalid_argument _ -> true)

let test_out_of_range_rejected () =
  let net = Netsim.Net.create 2 in
  checkb "raises" true
    (try
       Netsim.Net.send net ~src:0 ~dst:5 (msg "x");
       false
     with Invalid_argument _ -> true)

let test_bit_accounting () =
  let net = Netsim.Net.create 3 in
  Netsim.Net.send net ~src:0 ~dst:1 (Bytes.make 10 'x');
  Netsim.Net.send net ~src:0 ~dst:2 (Bytes.make 5 'y');
  Netsim.Net.send net ~src:1 ~dst:0 (Bytes.make 1 'z');
  checki "party 0 sent" (8 * 15) (Netsim.Net.bits_sent net 0);
  checki "party 1 sent" 8 (Netsim.Net.bits_sent net 1);
  checki "party 1 received" 80 (Netsim.Net.bits_received net 1);
  checki "total" (8 * 16) (Netsim.Net.total_bits net);
  checki "honest-only subset" (8 * 15) (Netsim.Net.total_bits_of net [ 0 ]);
  checki "messages" 3 (Netsim.Net.messages_sent net)

let test_locality_tracking () =
  let net = Netsim.Net.create 5 in
  Netsim.Net.send net ~src:0 ~dst:1 (msg "a");
  Netsim.Net.send net ~src:0 ~dst:2 (msg "b");
  Netsim.Net.send net ~src:3 ~dst:0 (msg "c");
  (* Locality counts both directions. *)
  checki "party 0 locality" 3 (Netsim.Net.locality net 0);
  checki "party 1 locality" 1 (Netsim.Net.locality net 1);
  checki "party 4 locality" 0 (Netsim.Net.locality net 4);
  checki "max locality" 3 (Netsim.Net.max_locality net);
  checkb "peers of 0" true
    (Util.Iset.equal (Netsim.Net.peers net 0) (Util.Iset.of_list [ 1; 2; 3 ]))

let test_rounds () =
  let net = Netsim.Net.create 2 in
  checki "zero rounds" 0 (Netsim.Net.rounds net);
  Netsim.Net.step net;
  Netsim.Net.step net;
  checki "two rounds" 2 (Netsim.Net.rounds net)

let test_snapshot_diff () =
  let net = Netsim.Net.create 2 in
  Netsim.Net.send net ~src:0 ~dst:1 (Bytes.make 4 'a');
  Netsim.Net.step net;
  let before = Netsim.Net.snapshot net in
  Netsim.Net.send net ~src:1 ~dst:0 (Bytes.make 2 'b');
  Netsim.Net.step net;
  let d = Netsim.Net.diff_snapshot ~before ~after:(Netsim.Net.snapshot net) in
  checki "phase bits" 16 d.Netsim.Net.snap_bits;
  checki "phase msgs" 1 d.Netsim.Net.snap_msgs;
  checki "phase rounds" 1 d.Netsim.Net.snap_rounds

let test_messages_cross_rounds () =
  let net = Netsim.Net.create 2 in
  Netsim.Net.send net ~src:0 ~dst:1 (msg "r1");
  Netsim.Net.step net;
  Netsim.Net.send net ~src:0 ~dst:1 (msg "r2");
  Netsim.Net.step net;
  (* Undrained messages accumulate. *)
  let received = Netsim.Net.recv net ~dst:1 in
  checki "both rounds present" 2 (List.length received)

(* ---- Property: the bucketed simulator matches the old list-based one ---- *)

(* Reference model: the original implementation kept one pending list in
   send order and, at [step], stable-sorted it by sender id before
   appending to each recipient's inbox list; [recv_from] partitioned the
   inbox.  The rewritten simulator must be observationally identical.
   [step] takes the sender order so the model can follow a transport that
   delivers in some other order; the accounting tallies are kept op by op
   from the sends alone. *)
module Model = struct
  type t = {
    mutable pending : (int * int * bytes) list; (* reverse send order *)
    inbox : (int * bytes) list array;
    sent : int array;
    received : int array;
    peers : bool array array;
  }

  let create n =
    {
      pending = [];
      inbox = Array.make n [];
      sent = Array.make n 0;
      received = Array.make n 0;
      peers = Array.make_matrix n n false;
    }

  let send t ~src ~dst payload =
    t.pending <- (src, dst, payload) :: t.pending;
    let bits = 8 * Bytes.length payload in
    t.sent.(src) <- t.sent.(src) + bits;
    t.received.(dst) <- t.received.(dst) + bits;
    t.peers.(src).(dst) <- true;
    t.peers.(dst).(src) <- true

  let step ~sender_order t =
    let msgs = List.rev t.pending in
    t.pending <- [];
    let sorted = List.stable_sort (fun (s1, _, _) (s2, _, _) -> sender_order s1 s2) msgs in
    List.iter (fun (src, dst, p) -> t.inbox.(dst) <- t.inbox.(dst) @ [ (src, p) ]) sorted

  let recv t ~dst =
    let r = t.inbox.(dst) in
    t.inbox.(dst) <- [];
    r

  let recv_from t ~dst ~src =
    let mine, rest = List.partition (fun (s, _) -> s = src) t.inbox.(dst) in
    t.inbox.(dst) <- rest;
    List.map snd mine

  let recv_one t ~dst ~src = match recv_from t ~dst ~src with [ p ] -> Some p | _ -> None
  let peek t ~dst = t.inbox.(dst)

  let peers t i =
    List.filter (fun j -> t.peers.(i).(j)) (List.init (Array.length t.peers) Fun.id)

  let active t =
    List.filter (fun i -> t.inbox.(i) <> []) (List.init (Array.length t.inbox) Fun.id)
end

type op =
  | Send of int * int * int (* src, dst, extra payload len *)
  | Step
  | Recv of int
  | Recv_from of int * int (* dst, src *)
  | Recv_one of int * int (* dst, src *)
  | Peek of int
  | Peers of int
  | Locality of int
  | Max_locality

(* Parties are drawn mostly from the first eight, so at n = 64 inboxes
   still collect several senders and [recv_from]/[recv_one] mostly hit. *)
let gen_op n =
  let open QCheck.Gen in
  let party = frequency [ (1, int_bound (n - 1)); (2, int_bound (min 7 (n - 1))) ] in
  frequency
    [
      (5, map3 (fun src dst len -> Send (src, dst, len)) party party (int_bound 8));
      (2, return Step);
      (2, map (fun dst -> Recv dst) party);
      (3, map2 (fun dst src -> Recv_from (dst, src)) party party);
      (2, map2 (fun dst src -> Recv_one (dst, src)) party party);
      (1, map (fun dst -> Peek dst) party);
      (1, map (fun i -> Peers i) party);
      (1, map (fun i -> Locality i) party);
      (1, return Max_locality);
    ]

let run_ops ~descending n ops =
  let net =
    if descending then Netsim.Net.create ~transport:(Descending_transport.create ()) n
    else Netsim.Net.create n
  in
  let sender_order = if descending then fun a b -> compare b a else compare in
  let m = Model.create n in
  let counter = ref 0 in
  let bits = ref 0 and msgs = ref 0 and rnds = ref 0 in
  let ok = ref true in
  let check_eq a b = if a <> b then ok := false in
  List.iter
    (fun op ->
      match op with
      | Send (src, dst0, len) ->
        (* Self-sends are forbidden by the simulator; redirect. *)
        let dst = if dst0 = src then (src + 1) mod n else dst0 in
        incr counter;
        let payload = Bytes.of_string (Printf.sprintf "m%d.%s" !counter (String.make len 'x')) in
        Netsim.Net.send net ~src ~dst payload;
        Model.send m ~src ~dst payload;
        bits := !bits + (8 * Bytes.length payload);
        incr msgs
      | Step ->
        Netsim.Net.step net;
        Model.step ~sender_order m;
        incr rnds
      | Recv dst -> check_eq (Netsim.Net.recv net ~dst) (Model.recv m ~dst)
      | Recv_from (dst, src) ->
        check_eq (Netsim.Net.recv_from net ~dst ~src) (Model.recv_from m ~dst ~src)
      | Recv_one (dst, src) ->
        check_eq (Netsim.Net.recv_one net ~dst ~src) (Model.recv_one m ~dst ~src)
      | Peek dst -> check_eq (Netsim.Net.peek net ~dst) (Model.peek m ~dst)
      (* Peer queries between sends and steps see every send so far. *)
      | Peers i -> check_eq (Util.Iset.to_sorted_list (Netsim.Net.peers net i)) (Model.peers m i)
      | Locality i -> check_eq (Netsim.Net.locality net i) (List.length (Model.peers m i))
      | Max_locality ->
        check_eq (Netsim.Net.max_locality net)
          (List.fold_left max 0 (List.init n (fun j -> List.length (Model.peers m j)))))
    ops;
  (* Whatever is still undrained must also agree. *)
  check_eq (Netsim.Net.active_parties net) (Model.active m);
  for dst = 0 to n - 1 do
    check_eq (Netsim.Net.peek net ~dst) (Model.peek m ~dst)
  done;
  (* Per-party accounting against the model's tallies. *)
  for i = 0 to n - 1 do
    check_eq (Netsim.Net.bits_sent net i) m.Model.sent.(i);
    check_eq (Netsim.Net.bits_received net i) m.Model.received.(i);
    check_eq (Util.Iset.to_sorted_list (Netsim.Net.peers net i)) (Model.peers m i);
    check_eq (Netsim.Net.locality net i) (List.length (Model.peers m i))
  done;
  check_eq (Netsim.Net.max_locality net)
    (List.fold_left max 0 (List.init n (fun i -> List.length (Model.peers m i))));
  (* Totals equal the op-by-op tallies, and snapshots diff to zero
     against themselves. *)
  let snap = Netsim.Net.snapshot net in
  if snap.Netsim.Net.snap_bits <> !bits then ok := false;
  if snap.Netsim.Net.snap_msgs <> !msgs then ok := false;
  if snap.Netsim.Net.snap_rounds <> !rnds then ok := false;
  let zero = Netsim.Net.diff_snapshot ~before:snap ~after:snap in
  if
    zero.Netsim.Net.snap_bits <> 0
    || zero.Netsim.Net.snap_msgs <> 0
    || zero.Netsim.Net.snap_rounds <> 0
  then ok := false;
  !ok

(* Each script runs twice: on the default sync transport, and on the
   descending-order transport, which forces the per-sender index that an
   ascending inbox never needs. *)
let prop_matches_reference ~name n =
  QCheck.Test.make ~count:500 ~name
    (QCheck.make QCheck.Gen.(list_size (int_bound 160) (gen_op n)))
    (fun ops -> run_ops ~descending:false n ops && run_ops ~descending:true n ops)

(* Steady traffic leaves the network's footprint unchanged: each
   round's fold sizes a peer set for that round's new entries only, so
   a ring whose sets hold two peers keeps its minimum tables however
   many rounds it runs. *)
let test_peer_sets_sized_per_round () =
  let n = 512 in
  let net = Netsim.Net.create n in
  let payload = msg "r" in
  let round () =
    for i = 0 to n - 1 do
      Netsim.Net.send net ~src:i ~dst:((i + 1) mod n) payload
    done;
    Netsim.Net.step net;
    for i = 0 to n - 1 do
      ignore (Netsim.Net.recv net ~dst:i)
    done
  in
  for _ = 1 to 4 do
    round ()
  done;
  let words () = Obj.reachable_words (Obj.repr net) in
  let before = words () in
  for _ = 1 to 60 do
    round ()
  done;
  checki "locality" 2 (Netsim.Net.max_locality net);
  checki "reachable words unchanged" before (words ())

(* ---- Corruption ---- *)

let test_corruption_none () =
  let c = Netsim.Corruption.none ~n:5 in
  checki "honest" 5 (Netsim.Corruption.num_honest c);
  checki "corrupted" 0 (Netsim.Corruption.num_corrupted c);
  for i = 0 to 4 do
    checkb "all honest" true (Netsim.Corruption.is_honest c i)
  done

let test_corruption_random () =
  let rng = Util.Prng.create 1 in
  for _ = 1 to 20 do
    let c = Netsim.Corruption.random rng ~n:10 ~h:4 in
    checki "honest count" 4 (Netsim.Corruption.num_honest c);
    checki "corrupted count" 6 (Netsim.Corruption.num_corrupted c)
  done

let test_corruption_targeting () =
  let rng = Util.Prng.create 2 in
  for _ = 1 to 20 do
    let c = Netsim.Corruption.targeting rng ~n:10 ~h:3 ~victim:7 in
    checkb "victim honest" true (Netsim.Corruption.is_honest c 7);
    checki "honest count" 3 (Netsim.Corruption.num_honest c)
  done

let test_corruption_lists () =
  let c = Netsim.Corruption.make ~n:4 ~corrupted:(Util.Iset.of_list [ 1; 3 ]) in
  Alcotest.(check (list int)) "honest list" [ 0; 2 ] (Netsim.Corruption.honest_list c);
  Alcotest.(check (list int)) "corrupted list" [ 1; 3 ] (Netsim.Corruption.corrupted_list c)

(* ---- max_rounds watchdog ---- *)

let test_max_rounds_watchdog () =
  let net = Netsim.Net.create ~max_rounds:3 2 in
  for _ = 1 to 3 do
    Netsim.Net.send net ~src:0 ~dst:1 (msg "tick");
    Netsim.Net.step net
  done;
  checkb "livelock raised with the bound's payload" true
    (try
       Netsim.Net.step net;
       false
     with Netsim.Net.Livelock { rounds; max_rounds } -> rounds = 3 && max_rounds = 3)

let test_max_rounds_default_unlimited () =
  let net = Netsim.Net.create 2 in
  for _ = 1 to 10_000 do
    Netsim.Net.step net
  done;
  checki "rounds just count" 10_000 (Netsim.Net.rounds net)

let test_max_rounds_bad_bound () =
  checkb "non-positive bound rejected" true
    (try
       ignore (Netsim.Net.create ~max_rounds:0 2);
       false
     with Invalid_argument _ -> true)

let test_livelock_printer () =
  (* The registered printer is what soak/bench failure logs show — pin
     its exact text so a livelock report stays greppable. *)
  Alcotest.(check string)
    "printer output" "Netsim.Net.Livelock: round clock hit 3 (max_rounds = 3)"
    (Printexc.to_string (Netsim.Net.Livelock { rounds = 3; max_rounds = 3 }))

(* ---- corruption pattern edge cases ---- *)

let test_corruption_extremes () =
  let rng = Util.Prng.create 11 in
  (* h = n: nobody corrupted, under both samplers. *)
  let all = Netsim.Corruption.random rng ~n:6 ~h:6 in
  checki "h=n corrupts nobody" 0 (Netsim.Corruption.num_corrupted all);
  let all_t = Netsim.Corruption.targeting rng ~n:6 ~h:6 ~victim:0 in
  checki "targeting h=n corrupts nobody" 0 (Netsim.Corruption.num_corrupted all_t);
  (* h = 1: everyone but one corrupted; targeting pins who survives. *)
  let one = Netsim.Corruption.random rng ~n:6 ~h:1 in
  checki "h=1 leaves one honest" 1 (Netsim.Corruption.num_honest one);
  let lone = Netsim.Corruption.targeting rng ~n:6 ~h:1 ~victim:4 in
  checkb "h=1 survivor is the victim" true
    (Netsim.Corruption.is_honest lone 4 && Netsim.Corruption.num_honest lone = 1)

let test_corruption_targeting_boundaries () =
  let rng = Util.Prng.create 12 in
  List.iter
    (fun victim ->
      for trial = 0 to 19 do
        ignore trial;
        let c = Netsim.Corruption.targeting rng ~n:9 ~h:3 ~victim in
        checkb "boundary victim honest" true (Netsim.Corruption.is_honest c victim);
        checki "exact honest count" 3 (Netsim.Corruption.num_honest c)
      done)
    [ 0; 8 ]

(* [is_corrupted]/[is_honest] answer from a byte mask; they must agree
   with membership in [corrupted] for every constructor, and ids outside
   [0, n) stay uncorrupted. *)
let prop_corruption_mask_matches_set =
  QCheck.Test.make ~count:300 ~name:"is_corrupted/is_honest = Iset.mem on corrupted"
    (QCheck.make
       QCheck.Gen.(
         int_range 1 300 >>= fun n ->
         quad (return n) small_nat (int_range 1 n) (list_size (int_bound n) (int_bound (n - 1)))))
    (fun (n, seed, h, ids) ->
      let rng = Util.Prng.create seed in
      let agrees c =
        let bad = Netsim.Corruption.corrupted c in
        List.for_all
          (fun i ->
            let corrupt = i >= 0 && i < n && Util.Iset.mem i bad in
            Netsim.Corruption.is_corrupted c i = corrupt
            && Netsim.Corruption.is_honest c i = not corrupt)
          (List.init (n + 6) (fun i -> i - 3))
      in
      agrees (Netsim.Corruption.none ~n)
      && agrees (Netsim.Corruption.make ~n ~corrupted:(Util.Iset.of_list ids))
      && agrees (Netsim.Corruption.random rng ~n ~h)
      && agrees (Netsim.Corruption.targeting rng ~n ~h ~victim:(seed mod n)))

let prop_corruption_exact_counts =
  QCheck.Test.make ~count:300 ~name:"samplers corrupt exactly n-h, victim honest"
    QCheck.(triple (int_range 2 40) (int_range 1 40) small_nat)
    (fun (n, h_raw, seed) ->
      QCheck.assume (h_raw <= n);
      let h = h_raw in
      let rng = Util.Prng.create (1 + seed) in
      let r = Netsim.Corruption.random rng ~n ~h in
      let victim = seed mod n in
      let t = Netsim.Corruption.targeting rng ~n ~h ~victim in
      Netsim.Corruption.num_corrupted r = n - h
      && Netsim.Corruption.num_honest r = h
      && Netsim.Corruption.num_corrupted t = n - h
      && Netsim.Corruption.is_honest t victim)

let test_corruption_bad_args () =
  checkb "out of range corrupted" true
    (try
       ignore (Netsim.Corruption.make ~n:3 ~corrupted:(Util.Iset.of_list [ 5 ]));
       false
     with Invalid_argument _ -> true);
  let rng = Util.Prng.create 3 in
  checkb "h too large" true
    (try
       ignore (Netsim.Corruption.random rng ~n:3 ~h:4);
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "netsim"
    [
      ( "net",
        [
          Alcotest.test_case "send/recv basic" `Quick test_basic_send_recv;
          Alcotest.test_case "deterministic delivery order" `Quick test_delivery_order_deterministic;
          Alcotest.test_case "recv_from" `Quick test_recv_from;
          Alcotest.test_case "recv drains everything" `Quick test_recv_drains_everything;
          Alcotest.test_case "recv_from leaves other senders" `Quick
            test_recv_from_leaves_other_senders;
          Alcotest.test_case "recv_one singleton/multi/silent" `Quick test_recv_one;
          Alcotest.test_case "self-send rejected" `Quick test_self_send_rejected;
          Alcotest.test_case "out-of-range rejected" `Quick test_out_of_range_rejected;
          Alcotest.test_case "bit accounting" `Quick test_bit_accounting;
          Alcotest.test_case "locality tracking" `Quick test_locality_tracking;
          Alcotest.test_case "round counting" `Quick test_rounds;
          Alcotest.test_case "snapshot diff" `Quick test_snapshot_diff;
          Alcotest.test_case "messages accumulate" `Quick test_messages_cross_rounds;
          Alcotest.test_case "peer sets sized per round" `Quick test_peer_sets_sized_per_round;
          QCheck_alcotest.to_alcotest
            (prop_matches_reference ~name:"bucketed net ≡ list-based reference" 5);
          QCheck_alcotest.to_alcotest
            (prop_matches_reference ~name:"bucketed net ≡ list-based reference, n=64" 64);
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "max_rounds bound raises Livelock" `Quick test_max_rounds_watchdog;
          Alcotest.test_case "default is unlimited" `Quick test_max_rounds_default_unlimited;
          Alcotest.test_case "non-positive bound rejected" `Quick test_max_rounds_bad_bound;
          Alcotest.test_case "Livelock printer pinned" `Quick test_livelock_printer;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "none" `Quick test_corruption_none;
          Alcotest.test_case "random" `Quick test_corruption_random;
          Alcotest.test_case "targeting" `Quick test_corruption_targeting;
          Alcotest.test_case "lists" `Quick test_corruption_lists;
          Alcotest.test_case "extremes h=1 and h=n" `Quick test_corruption_extremes;
          Alcotest.test_case "targeting at index boundaries" `Quick
            test_corruption_targeting_boundaries;
          QCheck_alcotest.to_alcotest prop_corruption_exact_counts;
          QCheck_alcotest.to_alcotest prop_corruption_mask_matches_set;
          Alcotest.test_case "bad arguments" `Quick test_corruption_bad_args;
        ] );
    ]
