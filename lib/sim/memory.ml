module Ir = Spf_ir.Ir

(* Flat byte-addressable memory with a bump allocator.

   Address 0 is never handed out (allocations start at one page) so that a
   zero address can serve as a null sentinel in workloads.  The backing
   buffer grows on demand; all accessors are little-endian. *)

type t = { mutable data : Bytes.t; mutable brk : int }

let create ?(initial = 1 lsl 20) () =
  { data = Bytes.make initial '\000'; brk = 4096 }

let ensure t limit =
  let n = Bytes.length t.data in
  if limit > n then begin
    let n' = ref n in
    while limit > !n' do
      n' := !n' * 2
    done;
    let bigger = Bytes.make !n' '\000' in
    Bytes.blit t.data 0 bigger 0 n;
    t.data <- bigger
  end

(* Allocate [size] bytes aligned to a cache line; returns the base address. *)
let alloc t size =
  let aligned = (t.brk + Machine.line_size - 1) land lnot (Machine.line_size - 1) in
  ensure t (aligned + size);
  t.brk <- aligned + size;
  aligned

let size t = t.brk

(* Shrink the mapped region (clamp the break).  Accesses at or past the
   new break trap afterwards; the validator uses this to hunt for
   introduced faults near the end of the allocation. *)
let truncate t brk =
  (* The initial page is never unmapped: [create] starts the break at
     4096 and [alloc] only grows it, so addresses below 4096 are
     in-bounds in every reachable memory — an invariant the translation
     validator's null-page reasoning relies on. *)
  let brk = max brk 4096 in
  if brk < t.brk then t.brk <- brk

(* An access is in bounds when it lies entirely below the break.  The
   interpreter traps demand accesses outside this range and drops software
   prefetches to it non-faulting; the first page (never handed out by
   [alloc]) stays readable so workloads can use small integers as null-ish
   sentinels without faulting on stray dereferences of page zero. *)
let in_bounds t ~addr ~width =
  (* [t.brk - width] rather than [addr + width] so huge addresses cannot
     wrap around max_int and masquerade as mapped. *)
  addr >= 0 && width >= 0 && addr <= t.brk - width

(* Content digest of the allocated region, for differential testing. *)
let digest t = Digest.to_hex (Digest.subbytes t.data 0 t.brk)

let load t (ty : Ir.ty) addr =
  match ty with
  | Ir.I8 -> Char.code (Bytes.get t.data addr)
  | Ir.I16 -> Bytes.get_uint16_le t.data addr
  | Ir.I32 -> Int32.to_int (Bytes.get_int32_le t.data addr) land 0xFFFFFFFF
  | Ir.I64 | Ir.F64 -> Int64.to_int (Bytes.get_int64_le t.data addr)

let store t (ty : Ir.ty) addr v =
  match ty with
  | Ir.I8 -> Bytes.set t.data addr (Char.chr (v land 0xFF))
  | Ir.I16 -> Bytes.set_uint16_le t.data addr (v land 0xFFFF)
  | Ir.I32 -> Bytes.set_int32_le t.data addr (Int32.of_int v)
  | Ir.I64 | Ir.F64 -> Bytes.set_int64_le t.data addr (Int64.of_int v)

let load_f64 t addr = Int64.float_of_bits (Bytes.get_int64_le t.data addr)
let store_f64 t addr x = Bytes.set_int64_le t.data addr (Int64.bits_of_float x)

(* Unchecked multi-byte accessors.  [Bytes.get_int64_le] and friends are
   out-of-line stdlib calls that bounds-check and box their result; on the
   simulator's per-dynamic-load path that call plus the allocation is
   measurable.  These compiler primitives inline to a single (unaligned)
   machine access, with the byte order fixed up on big-endian hosts. *)
external get_16u : Bytes.t -> int -> int = "%caml_bytes_get16u"
external get_32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external get_64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_16u : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"
external set_32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external set_64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external swap16 : int -> int = "%bswap16"
external swap32 : int32 -> int32 = "%bswap_int32"
external swap64 : int64 -> int64 = "%bswap_int64"

(* Callers must have established [in_bounds] first — the interpreter traps
   before reaching these, so the Bytes bounds check would be pure
   overhead. *)
let unsafe_load t (ty : Ir.ty) addr =
  match ty with
  | Ir.I8 -> Char.code (Bytes.unsafe_get t.data addr)
  | Ir.I16 ->
      let v = get_16u t.data addr in
      if Sys.big_endian then swap16 v else v
  | Ir.I32 ->
      let v = get_32u t.data addr in
      Int32.to_int (if Sys.big_endian then swap32 v else v) land 0xFFFFFFFF
  | Ir.I64 | Ir.F64 ->
      let v = get_64u t.data addr in
      Int64.to_int (if Sys.big_endian then swap64 v else v)

let unsafe_store t (ty : Ir.ty) addr v =
  match ty with
  | Ir.I8 -> Bytes.unsafe_set t.data addr (Char.unsafe_chr (v land 0xFF))
  | Ir.I16 ->
      let v = v land 0xFFFF in
      set_16u t.data addr (if Sys.big_endian then swap16 v else v)
  | Ir.I32 ->
      let v = Int32.of_int v in
      set_32u t.data addr (if Sys.big_endian then swap32 v else v)
  | Ir.I64 | Ir.F64 ->
      let v = Int64.of_int v in
      set_64u t.data addr (if Sys.big_endian then swap64 v else v)

let unsafe_load_f64 t addr =
  let v = get_64u t.data addr in
  Int64.float_of_bits (if Sys.big_endian then swap64 v else v)

let unsafe_store_f64 t addr x =
  let v = Int64.bits_of_float x in
  set_64u t.data addr (if Sys.big_endian then swap64 v else v)

(* Convenience array views used by workload generators and checksums.
   [alloc] has mapped the whole destination, so the bulk stores skip the
   per-element bounds check and go through the unchecked primitives. *)

let alloc_i32_array t values =
  let base = alloc t (4 * Array.length values) in
  for i = 0 to Array.length values - 1 do
    unsafe_store t Ir.I32 (base + (4 * i)) (Array.unsafe_get values i)
  done;
  base

let alloc_i64_array t values =
  let base = alloc t (8 * Array.length values) in
  for i = 0 to Array.length values - 1 do
    unsafe_store t Ir.I64 (base + (8 * i)) (Array.unsafe_get values i)
  done;
  base

let alloc_f64_array t values =
  let base = alloc t (8 * Array.length values) in
  for i = 0 to Array.length values - 1 do
    unsafe_store_f64 t (base + (8 * i)) (Array.unsafe_get values i)
  done;
  base

let read_i32_array t ~base ~len = Array.init len (fun i -> load t Ir.I32 (base + (4 * i)))
let read_i64_array t ~base ~len = Array.init len (fun i -> load t Ir.I64 (base + (8 * i)))
let read_f64_array t ~base ~len = Array.init len (fun i -> load_f64 t (base + (8 * i)))
