type t = {
  name : string;
  submit : src:int -> dst:int -> bytes -> unit;
  advance : deliver:(src:int -> dst:int -> bytes -> unit) -> unit;
  in_flight : unit -> int;
}

(* In-flight messages in submission order, as parallel arrays, so
   [submit] allocates nothing beyond amortized growth. *)
type pending = {
  mutable srcs : int array;
  mutable dsts : int array;
  mutable payloads : bytes array;
  mutable count : int;
  mutable ascending : bool; (* srcs.(0 .. count-1) never decrease *)
}

let sync () =
  let p = { srcs = [||]; dsts = [||]; payloads = [||]; count = 0; ascending = true } in
  let submit ~src ~dst payload =
    let c = p.count in
    if c = Array.length p.srcs then begin
      let cap = max 64 (2 * c) in
      let grow a fill =
        let b = Array.make cap fill in
        Array.blit a 0 b 0 c;
        b
      in
      p.srcs <- grow p.srcs 0;
      p.dsts <- grow p.dsts 0;
      p.payloads <- grow p.payloads Bytes.empty
    end;
    if c > 0 && Array.unsafe_get p.srcs (c - 1) > src then p.ascending <- false;
    p.srcs.(c) <- src;
    p.dsts.(c) <- dst;
    p.payloads.(c) <- payload;
    p.count <- c + 1
  in
  let advance ~deliver =
    let c = p.count in
    if c > 0 then begin
      let { srcs; dsts; payloads; _ } = p in
      (* Canonical order: ascending sender, then submission order.  Every
         protocol's per-party send loop submits in that order already;
         anything else is stably sorted by sender. *)
      if p.ascending then
        for k = 0 to c - 1 do
          deliver ~src:srcs.(k) ~dst:dsts.(k) payloads.(k)
        done
      else begin
        let order = Array.init c Fun.id in
        Array.stable_sort (fun a b -> Int.compare srcs.(a) srcs.(b)) order;
        Array.iter (fun k -> deliver ~src:srcs.(k) ~dst:dsts.(k) payloads.(k)) order
      end;
      (* Drop payload references so delivered messages are owned by the
         recipients' inboxes alone. *)
      Array.fill payloads 0 c Bytes.empty;
      p.count <- 0;
      p.ascending <- true
    end
  in
  { name = "sync"; submit; advance; in_flight = (fun () -> p.count) }

let sync_dense ~n:_ = sync ()
let sync_sparse () = sync ()
