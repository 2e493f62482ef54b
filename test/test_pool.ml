(* Tests for Util.Pool — the deterministic domain pool under the bench
   harness.  The load-bearing property: [map_jobs] equals sequential
   [Array.map] at every worker count, because results are written back by
   job index regardless of which domain claims which job. *)

let checkb = Alcotest.(check bool)

(* jobs ∈ {1, 2, 8} parallel executors = {0, 1, 7} pool workers plus the
   participating caller. *)
let worker_counts = [ 0; 1; 7 ]

let with_pool num_domains f =
  let p = Util.Pool.create ~num_domains () in
  Fun.protect ~finally:(fun () -> Util.Pool.shutdown p) (fun () -> f p)

let prop_matches_sequential =
  QCheck.Test.make ~count:60 ~name:"map_jobs ≡ Array.map at jobs ∈ {1,2,8}"
    QCheck.(pair (list_of_size (QCheck.Gen.int_bound 50) int) small_nat)
    (fun (xs, salt) ->
      let jobs = Array.of_list xs in
      let f x = (x * x) + salt in
      let expected = Array.map f jobs in
      List.for_all
        (fun nd -> with_pool nd (fun p -> Util.Pool.map_jobs p jobs f = expected))
        worker_counts)

let test_order_preserved_under_skew () =
  (* Give early jobs the most work so late jobs finish first on a real
     multicore — the result must still come back in array order. *)
  with_pool 7 (fun p ->
      let jobs = Array.init 64 (fun i -> i) in
      let f i =
        let spin = (64 - i) * 2000 in
        let acc = ref 0 in
        for k = 1 to spin do
          acc := !acc + (k land 7)
        done;
        ignore !acc;
        i * 3
      in
      let r = Util.Pool.map_jobs p jobs f in
      checkb "ordered" true (r = Array.map f jobs))

let test_pool_reuse () =
  with_pool 3 (fun p ->
      for round = 1 to 20 do
        let jobs = Array.init (round * 5) (fun i -> i) in
        let f i = i + round in
        checkb "reused pool matches" true (Util.Pool.map_jobs p jobs f = Array.map f jobs)
      done)

let test_empty_and_singleton () =
  with_pool 2 (fun p ->
      checkb "empty" true (Util.Pool.map_jobs p [||] (fun () -> assert false) = [||]);
      checkb "singleton" true (Util.Pool.map_jobs p [| 41 |] succ = [| 42 |]))

let test_exception_lowest_index () =
  with_pool 7 (fun p ->
      let jobs = Array.init 40 (fun i -> i) in
      checkb "lowest failing index wins" true
        (try
           ignore
             (Util.Pool.map_jobs p jobs (fun i ->
                  if i mod 10 = 3 then failwith (string_of_int i) else i));
           false
         with Failure s -> s = "3"))

let test_poisoned_batch_then_reuse () =
  (* A raising job must not wedge the pool: the batch's exception
     propagates to the caller and the very same pool then serves clean
     batches with correct results. *)
  with_pool 7 (fun p ->
      let poisoned () =
        try
          ignore
            (Util.Pool.map_jobs p (Array.init 32 Fun.id) (fun i ->
                 if i = 17 then failwith "poison" else i * 2));
          false
        with Failure s -> s = "poison"
      in
      checkb "first poisoned batch raises" true (poisoned ());
      let jobs = Array.init 50 Fun.id in
      checkb "pool usable after poison" true
        (Util.Pool.map_jobs p jobs succ = Array.map succ jobs);
      (* Alternate poisoned and clean batches: no deadlock, no stale
         results leaking across batches. *)
      for round = 1 to 10 do
        checkb "repeated poison raises" true (poisoned ());
        let f i = i + round in
        checkb "clean batch after repeated poison" true
          (Util.Pool.map_jobs p jobs f = Array.map f jobs)
      done)

let test_all_jobs_poisoned () =
  (* Every job raising is the worst case for result collection: the
     caller must still get exactly one exception (the lowest index) and
     keep the pool alive. *)
  with_pool 3 (fun p ->
      for _ = 1 to 5 do
        checkb "all-poisoned batch raises lowest" true
          (try
             ignore
               (Util.Pool.map_jobs p (Array.init 16 Fun.id) (fun i ->
                    failwith (string_of_int i)));
             false
           with Failure s -> s = "0")
      done;
      checkb "still alive" true (Util.Pool.map_jobs p [| 1; 2 |] succ = [| 2; 3 |]))

(* ---- job-count instrumentation ---- *)

let test_last_job_counts () =
  with_pool 3 (fun p ->
      Alcotest.(check bool) "no batch yet" true (Util.Pool.last_job_counts p = None);
      ignore (Util.Pool.map_jobs p (Array.init 40 Fun.id) (fun i -> i * 2));
      match Util.Pool.last_job_counts p with
      | None -> Alcotest.fail "counts missing after a batch"
      | Some c ->
        Alcotest.(check int) "one slot per worker plus the caller" 4 (Array.length c);
        Alcotest.(check int) "counts cover every job exactly once" 40 (Array.fold_left ( + ) 0 c);
        checkb "no negative counts" true (Array.for_all (fun x -> x >= 0) c))

let test_last_job_counts_zero_workers () =
  (* With no workers the caller drains the whole batch; the record is
     exact, not just a load observation. *)
  with_pool 0 (fun p ->
      ignore (Util.Pool.map_jobs p (Array.init 7 Fun.id) succ);
      checkb "caller drained everything" true (Util.Pool.last_job_counts p = Some [| 7 |]))

let test_shutdown_idempotent_and_final () =
  let p = Util.Pool.create ~num_domains:2 () in
  Util.Pool.shutdown p;
  Util.Pool.shutdown p;
  checkb "map_jobs after shutdown raises" true
    (try
       ignore (Util.Pool.map_jobs p [| 1 |] succ);
       false
     with Invalid_argument _ -> true)

let test_default_and_clamping () =
  checkb "default is non-negative" true (Util.Pool.default_num_domains () >= 0);
  checkb "default is clamped" true (Util.Pool.default_num_domains () <= 15);
  with_pool 99 (fun p -> Alcotest.(check int) "clamped to 64" 64 (Util.Pool.num_domains p));
  with_pool (-3) (fun p -> Alcotest.(check int) "clamped to 0" 0 (Util.Pool.num_domains p))

let () =
  Alcotest.run "pool"
    [
      ( "map_jobs",
        [
          QCheck_alcotest.to_alcotest prop_matches_sequential;
          Alcotest.test_case "order under skewed job sizes" `Quick
            test_order_preserved_under_skew;
          Alcotest.test_case "pool reuse across batches" `Quick test_pool_reuse;
          Alcotest.test_case "empty and singleton arrays" `Quick test_empty_and_singleton;
          Alcotest.test_case "exception of lowest index" `Quick test_exception_lowest_index;
          Alcotest.test_case "poisoned batch, then reuse" `Quick test_poisoned_batch_then_reuse;
          Alcotest.test_case "all jobs poisoned" `Quick test_all_jobs_poisoned;
        ] );
      ( "instrumentation",
        [
          Alcotest.test_case "last_job_counts covers the batch" `Quick test_last_job_counts;
          Alcotest.test_case "last_job_counts, zero workers" `Quick
            test_last_job_counts_zero_workers;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "shutdown idempotent, then raises" `Quick
            test_shutdown_idempotent_and_final;
          Alcotest.test_case "defaults and clamping" `Quick test_default_and_clamping;
        ] );
    ]
