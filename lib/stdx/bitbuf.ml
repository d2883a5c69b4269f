module Writer = struct
  type t = { mutable data : Bytes.t; mutable len_bits : int }

  let create () = { data = Bytes.make 16 '\000'; len_bits = 0 }

  let length_bits w = w.len_bits

  let ensure w extra_bits =
    let needed_bytes = (w.len_bits + extra_bits + 7) / 8 in
    if needed_bytes > Bytes.length w.data then begin
      let cap = max needed_bytes (2 * Bytes.length w.data) in
      let fresh = Bytes.make cap '\000' in
      Bytes.blit w.data 0 fresh 0 (Bytes.length w.data);
      w.data <- fresh
    end

  let bit w b =
    ensure w 1;
    if b then begin
      let byte = w.len_bits / 8 and off = w.len_bits mod 8 in
      let cur = Char.code (Bytes.get w.data byte) in
      Bytes.set w.data byte (Char.chr (cur lor (1 lsl (7 - off))))
    end;
    w.len_bits <- w.len_bits + 1

  let bits w v ~width =
    if width < 0 || width > 62 then invalid_arg "Bitbuf.Writer.bits: width";
    if v < 0 || (width < 62 && v lsr width <> 0) then
      invalid_arg "Bitbuf.Writer.bits: value does not fit width";
    for i = width - 1 downto 0 do
      bit w ((v lsr i) land 1 = 1)
    done

  let rec uvarint w v =
    if v < 0 then invalid_arg "Bitbuf.Writer.uvarint: negative";
    if v < 128 then bits w v ~width:8
    else begin
      bits w (128 lor (v land 127)) ~width:8;
      uvarint w (v lsr 7)
    end

  let int_list w l =
    uvarint w (List.length l);
    List.iter (uvarint w) l

  let int_array w a =
    uvarint w (Array.length a);
    Array.iter (uvarint w) a

  let string w s =
    if w.len_bits mod 8 = 0 then begin
      (* Aligned fast path: blit whole bytes. *)
      let n = String.length s in
      ensure w (8 * n);
      Bytes.blit_string s 0 w.data (w.len_bits / 8) n;
      w.len_bits <- w.len_bits + (8 * n)
    end
    else String.iter (fun c -> bits w (Char.code c) ~width:8) s

  let contents w = (Bytes.sub w.data 0 ((w.len_bits + 7) / 8), w.len_bits)
end

module Reader = struct
  type t = { data : Bytes.t; len_bits : int; mutable pos : int }

  exception Underflow

  let of_writer w =
    let data, len_bits = Writer.contents w in
    { data; len_bits; pos = 0 }

  let of_string s = { data = Bytes.of_string s; len_bits = 8 * String.length s; pos = 0 }

  let remaining_bits r = r.len_bits - r.pos

  let bit r =
    if r.pos >= r.len_bits then raise Underflow;
    let byte = r.pos / 8 and off = r.pos mod 8 in
    r.pos <- r.pos + 1;
    Char.code (Bytes.get r.data byte) land (1 lsl (7 - off)) <> 0

  (* Closure- and ref-free extraction loop: [bits]/[uvarint] run once
     per serialised sketch counter on the referee hot path, where a
     [ref] accumulator or a captured-environment closure per call is
     exactly the boxed-intermediate churn PERFORMANCE.md bans. All
     state is threaded through arguments of top-level functions. *)
  let rec bits_loop data pos k acc =
    if k = 0 then acc
    else
      let b = (Char.code (Bytes.unsafe_get data (pos lsr 3)) lsr (7 - (pos land 7))) land 1 in
      bits_loop data (pos + 1) (k - 1) ((acc lsl 1) lor b)

  let bits r ~width =
    if width < 0 || width > 62 then invalid_arg "Bitbuf.Reader.bits: width";
    if r.len_bits - r.pos < width then raise Underflow;
    let v = bits_loop r.data r.pos width 0 in
    r.pos <- r.pos + width;
    v

  let rec uvarint_loop r shift acc =
    let group = bits r ~width:8 in
    let acc = acc lor ((group land 127) lsl shift) in
    if group land 128 = 0 then acc else uvarint_loop r (shift + 7) acc

  let uvarint r = uvarint_loop r 0 0

  let int_list r =
    let n = uvarint r in
    List.init n (fun _ -> uvarint r)

  let int_array r =
    let n = uvarint r in
    Array.init n (fun _ -> uvarint r)

  let string r ~len =
    if len < 0 then invalid_arg "Bitbuf.Reader.string: len";
    if remaining_bits r < 8 * len then raise Underflow;
    if r.pos mod 8 = 0 then begin
      (* Aligned fast path: slice whole bytes. *)
      let s = Bytes.sub_string r.data (r.pos / 8) len in
      r.pos <- r.pos + (8 * len);
      s
    end
    else String.init len (fun _ -> Char.chr (bits r ~width:8))
end
