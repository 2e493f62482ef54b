(* A transport that delivers each step's messages in descending sender
   order (each sender's in send order), so inboxes fill against the
   ascending order the sync transport produces. *)
let create () =
  let pending = ref [] in
  {
    Netsim.Transport.name = "descending";
    submit = (fun ~src ~dst payload -> pending := (src, dst, payload) :: !pending);
    advance =
      (fun ~deliver ->
        let msgs = List.rev !pending in
        pending := [];
        List.iter
          (fun (src, dst, p) -> deliver ~src ~dst p)
          (List.stable_sort (fun (s1, _, _) (s2, _, _) -> compare s2 s1) msgs));
    in_flight = (fun () -> List.length !pending);
  }
