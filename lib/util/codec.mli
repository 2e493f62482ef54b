(** Binary serialization for protocol messages.

    Every message that crosses the simulated network is encoded through this
    module, so communication complexity is measured on real byte strings
    rather than on abstract message counts.  The format is a simple
    length-prefixed binary encoding: varints for integers, raw bytes for
    strings, and recursively encoded containers. *)

(** {1 Writer} *)

type writer

val writer : unit -> writer

(** [contents w] returns the bytes written so far. *)
val contents : writer -> bytes

(** [reset w] empties [w] but keeps its grown capacity — the cheap way to
    reuse one writer across the many messages of a round instead of
    allocating (and doubling) a fresh [Buffer] per message. *)
val reset : writer -> unit

(** [encode_into w f v] = [reset w; f w v; contents w]: encode through a
    caller-owned scratch writer.  The returned bytes are a fresh copy, so
    the scratch can be reused immediately.  {b Domain ownership:} a
    scratch writer is mutable state — it must be owned by a single domain
    (create it inside the pool job, or only use it from the calling
    domain). *)
val encode_into : writer -> (writer -> 'a -> unit) -> 'a -> bytes

(** [write_varint w v] appends [v] in LEB128 style: seven bits per byte,
    low bits first, the high bit of each byte set when more follow.  The
    encoding is of the 63-bit two's complement representation, so every
    int — negative ones included — takes 1 to 9 bytes (see
    {!varint_size}). *)
val write_varint : writer -> int -> unit

val write_bool : writer -> bool -> unit
val write_byte : writer -> int -> unit
val write_bytes : writer -> bytes -> unit

(** [write_raw w b] appends [b] without a length prefix. *)
val write_raw : writer -> bytes -> unit

val write_string : writer -> string -> unit
val write_list : writer -> (writer -> 'a -> unit) -> 'a list -> unit
val write_array : writer -> (writer -> 'a -> unit) -> 'a array -> unit
val write_pair : writer -> (writer -> 'a -> unit) -> (writer -> 'b -> unit) -> 'a * 'b -> unit
val write_option : writer -> (writer -> 'a -> unit) -> 'a option -> unit

(** {1 Reader} *)

type reader

(** Raised on malformed input.  The message always names the failing
    offset, and — when a length was involved — the expected vs available
    byte counts and the buffer's end (reported as the window end), so a
    malformed message can be diagnosed from the error alone. *)
exception Decode_error of string

val reader : bytes -> reader

(** [at_end r] is true when every byte has been consumed. *)
val at_end : reader -> bool

(** Current absolute offset within the underlying buffer — the same
    offset {!Decode_error} messages report.  Subtracting two positions
    counts the bytes a decoder consumed without copying them out. *)
val pos : reader -> int

(** [read_varint r] reads one {!write_varint} encoding.  A varint whose
    first nine bytes all have their continuation bit set is rejected with
    {!Decode_error} before a tenth byte is read. *)
val read_varint : reader -> int

val read_bool : reader -> bool
val read_byte : reader -> int
val read_bytes : reader -> bytes

(** [read_raw r len] reads exactly [len] bytes with no length prefix. *)
val read_raw : reader -> int -> bytes

(** {1 Zero-copy views}

    A [view] is an offset/length window into a buffer — the zero-copy
    counterpart of {!read_raw}/{!read_bytes}, for hot paths that would
    otherwise [Bytes.sub] every embedded value of every message.

    {b Ownership contract:} a view {e aliases} the reader's underlying
    buffer; it is valid for as long as that buffer is, and must be
    treated as read-only — mutating either aliases the other.  Simulator
    payloads are immutable by convention (senders never touch a payload
    after [Net.send], receivers never write into one), so views over
    received messages are safe to hold for the rest of the round.  Copy out with
    {!view_to_bytes} anything that must outlive the buffer. *)

type view = { buf : bytes; off : int; len : int }

(** [read_raw_view r len] consumes [len] bytes and returns their window —
    the zero-copy {!read_raw}. *)
val read_raw_view : reader -> int -> view

(** [read_bytes_view r] reads a varint length prefix and returns the
    payload window — the zero-copy {!read_bytes}. *)
val read_bytes_view : reader -> view

(** [view_to_bytes v] copies the window out. *)
val view_to_bytes : view -> bytes

(** [view_equal_bytes v b] — content equality against a byte string,
    without materializing the view. *)
val view_equal_bytes : view -> bytes -> bool

val read_string : reader -> string
val read_list : reader -> (reader -> 'a) -> 'a list
val read_array : reader -> (reader -> 'a) -> 'a array
val read_pair : reader -> (reader -> 'a) -> (reader -> 'b) -> 'a * 'b
val read_option : reader -> (reader -> 'a) -> 'a option

(** {1 Whole-message helpers} *)

(** [encode f v] runs [f] on a fresh writer and returns the bytes. *)
val encode : (writer -> 'a -> unit) -> 'a -> bytes

(** [decode f b] decodes [b] entirely; raises {!Decode_error} on trailing or
    missing bytes. *)
val decode : (reader -> 'a) -> bytes -> 'a

(** [varint_size v] is the encoded size of [v] in bytes (for cost models). *)
val varint_size : int -> int

(** Encoders for common shapes used across protocols. *)
val encode_int_list : int list -> bytes
val decode_int_list : bytes -> int list
