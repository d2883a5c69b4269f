(** Bit-exact message buffers.

    Sketch sizes in the paper are measured in {e bits}, so protocol messages
    are built with a bit-level writer and consumed with a bit-level reader.
    The writer records the exact number of bits appended; the model layer
    ([Sketchmodel]) charges that number as communication cost. *)

(** Append-only bit stream; grows as needed. *)
module Writer : sig
  type t
  (** A mutable buffer of bits. *)

  val create : unit -> t
  (** An empty writer. *)

  val length_bits : t -> int
  (** Exact number of bits written so far. *)

  val bit : t -> bool -> unit
  (** Append one bit. *)

  val bits : t -> int -> width:int -> unit
  (** [bits w v ~width] appends the low [width] bits of [v], most significant
      first. Requires [0 <= width <= 62] and [v] representable in [width]
      bits. *)

  val uvarint : t -> int -> unit
  (** LEB128-style variable-length encoding of a non-negative integer:
      7 payload bits + 1 continuation bit per group. *)

  val int_list : t -> int list -> unit
  (** Length-prefixed list of non-negative integers, each as a [uvarint]. *)

  val int_array : t -> int array -> unit
  (** [int_array w a] writes the same bits as [int_list w (Array.to_list a)],
      without building the list. *)

  val string : t -> string -> unit
  (** [string w s] appends every byte of [s], 8 bits each, MSB first —
      [8 * String.length s] bits at any alignment (whole-byte blit when the
      writer is byte-aligned). The length is {e not} encoded; frame it
      yourself (e.g. a [uvarint] prefix, as the [sketchd] wire codec does). *)

  val contents : t -> Bytes.t * int
  (** Raw bytes plus the exact bit length (the final byte may be partial). *)
end

(** Sequential consumer of a bit stream; each read advances the
    position and raises {!Reader.Underflow} past the end. *)
module Reader : sig
  type t
  (** A cursor over a finished bit stream. *)

  val of_writer : Writer.t -> t
  (** A reader positioned at the first bit of a finished message. *)

  val of_string : string -> t
  (** A reader over raw bytes received from elsewhere (a socket, a file):
      [8 * String.length s] bits, positioned at the first bit. *)

  val bit : t -> bool
  (** Read one bit. *)

  val bits : t -> width:int -> int
  (** Read back [width] bits written by {!Writer.bits}, MSB first. *)

  val uvarint : t -> int
  (** Read back one {!Writer.uvarint}. *)

  val int_list : t -> int list
  (** Read back one {!Writer.int_list}. *)

  val int_array : t -> int array
  (** Read back one {!Writer.int_list} or {!Writer.int_array} as an array. *)

  val string : t -> len:int -> string
  (** [string r ~len] reads back [len] bytes written by {!Writer.string}. *)

  val remaining_bits : t -> int
  (** Bits left between the cursor and the end of the stream. *)

  exception Underflow
  (** Raised when reading past the end of the message. *)
end
