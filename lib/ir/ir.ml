(* SSA intermediate representation.

   The IR deliberately mirrors the subset of LLVM IR that the CGO'17
   prefetching pass operates on: typed loads/stores, address computation via
   [Gep], phi nodes, allocations, calls with a purity flag, and an explicit
   [Prefetch] instruction.  Instructions are identified by dense integer ids;
   a function owns a growable instruction table plus an array of basic
   blocks, each holding an ordered array of instruction ids and a
   terminator. *)

type ty = I8 | I16 | I32 | I64 | F64

let size_of_ty = function
  | I8 -> 1
  | I16 -> 2
  | I32 -> 4
  | I64 | F64 -> 8

let string_of_ty = function
  | I8 -> "i8"
  | I16 -> "i16"
  | I32 -> "i32"
  | I64 -> "i64"
  | F64 -> "f64"

type binop =
  | Add | Sub | Mul | Sdiv | Srem
  | And | Or | Xor | Shl | Lshr | Ashr
  | Smin | Smax
  | Fadd | Fsub | Fmul | Fdiv

let string_of_binop = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Sdiv -> "sdiv"
  | Srem -> "srem" | And -> "and" | Or -> "or" | Xor -> "xor"
  | Shl -> "shl" | Lshr -> "lshr" | Ashr -> "ashr"
  | Smin -> "smin" | Smax -> "smax"
  | Fadd -> "fadd" | Fsub -> "fsub" | Fmul -> "fmul" | Fdiv -> "fdiv"

type cmp = Eq | Ne | Slt | Sle | Sgt | Sge

let string_of_cmp = function
  | Eq -> "eq" | Ne -> "ne" | Slt -> "slt"
  | Sle -> "sle" | Sgt -> "sgt" | Sge -> "sge"

type operand =
  | Var of int
  | Imm of int
  | Fimm of float

type call_info = { callee : string; args : operand list; pure : bool }

type kind =
  | Binop of binop * operand * operand
  | Cmp of cmp * operand * operand
  | Select of operand * operand * operand
  | Load of ty * operand
  | Store of ty * operand * operand
  | Gep of { base : operand; index : operand; scale : int }
  | Phi of (int * operand) list
  | Call of call_info
  | Prefetch of operand
  | Alloc of operand
  | Param of int

type instr = {
  id : int;
  mutable kind : kind;
  mutable block : int;
  mutable name : string;
}

type terminator =
  | Br of int
  | Cbr of operand * int * int
  | Ret of operand option
  | Unreachable

type block = {
  bid : int;
  mutable instrs : int array;
  mutable term : terminator;
  mutable bname : string;
}

type func = {
  fname : string;
  mutable blocks : block array;
  mutable itab : instr option array;
  mutable n_instrs : int;
  mutable entry : int;
  mutable param_ids : int array;
}

(* ------------------------------------------------------------------ *)
(* Operand and instruction helpers                                     *)
(* ------------------------------------------------------------------ *)

let srcs (k : kind) : operand list =
  match k with
  | Binop (_, a, b) | Cmp (_, a, b) | Store (_, a, b) -> [ a; b ]
  | Select (c, a, b) -> [ c; a; b ]
  | Load (_, a) | Prefetch a | Alloc a -> [ a ]
  | Gep { base; index; _ } -> [ base; index ]
  | Phi incoming -> List.map snd incoming
  | Call { args; _ } -> args
  | Param _ -> []

let map_srcs (f : operand -> operand) (k : kind) : kind =
  match k with
  | Binop (op, a, b) -> Binop (op, f a, f b)
  | Cmp (op, a, b) -> Cmp (op, f a, f b)
  | Select (c, a, b) -> Select (f c, f a, f b)
  | Load (ty, a) -> Load (ty, f a)
  | Store (ty, a, v) -> Store (ty, f a, f v)
  | Gep { base; index; scale } -> Gep { base = f base; index = f index; scale }
  | Phi incoming -> Phi (List.map (fun (b, v) -> (b, f v)) incoming)
  | Call c -> Call { c with args = List.map f c.args }
  | Prefetch a -> Prefetch (f a)
  | Alloc a -> Alloc (f a)
  | Param i -> Param i

(* [Store] and [Prefetch] produce no value; everything else defines one. *)
let defines_value = function
  | Store _ | Prefetch _ -> false
  | Binop _ | Cmp _ | Select _ | Load _ | Gep _ | Phi _ | Call _ | Alloc _
  | Param _ -> true

let has_side_effect = function
  | Store _ | Prefetch _ | Alloc _ -> true
  | Call { pure; _ } -> not pure
  | Binop _ | Cmp _ | Select _ | Load _ | Gep _ | Phi _ | Param _ -> false

(* ------------------------------------------------------------------ *)
(* Function construction / mutation                                    *)
(* ------------------------------------------------------------------ *)

let create_func ~name =
  {
    fname = name;
    blocks = [||];
    itab = Array.make 64 None;
    n_instrs = 0;
    entry = 0;
    param_ids = [||];
  }

let instr f id =
  match f.itab.(id) with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Ir.instr: no instruction %d" id)

let block f bid = f.blocks.(bid)
let n_blocks f = Array.length f.blocks
let n_instrs f = f.n_instrs

let fresh_instr f ~name ~block kind =
  let id = f.n_instrs in
  if id >= Array.length f.itab then begin
    let bigger = Array.make (2 * Array.length f.itab) None in
    Array.blit f.itab 0 bigger 0 (Array.length f.itab);
    f.itab <- bigger
  end;
  let i = { id; kind; block; name } in
  f.itab.(id) <- Some i;
  f.n_instrs <- id + 1;
  i

let add_block f ~name term =
  let bid = Array.length f.blocks in
  let b = { bid; instrs = [||]; term; bname = name } in
  f.blocks <- Array.append f.blocks [| b |];
  b

let append_instr f ~bid ~name kind =
  let i = fresh_instr f ~name ~block:bid kind in
  let b = f.blocks.(bid) in
  b.instrs <- Array.append b.instrs [| i.id |];
  i

let iter_instrs f g =
  for id = 0 to f.n_instrs - 1 do
    match f.itab.(id) with Some i -> g i | None -> ()
  done

let iter_blocks f g = Array.iter g f.blocks

(* Splice [ids] into the block containing [anchor], immediately before it.
   All ids must already exist in the instruction table with their [block]
   field set to the anchor's block. *)
let insert_before f ~anchor ids =
  if ids <> [] then begin
    let a = instr f anchor in
    let b = f.blocks.(a.block) in
    let pos = ref (-1) in
    Array.iteri (fun k id -> if id = anchor && !pos < 0 then pos := k) b.instrs;
    if !pos < 0 then
      invalid_arg "Ir.insert_before: anchor not in its block";
    let ids = Array.of_list ids in
    let n = Array.length b.instrs and m = Array.length ids in
    let out = Array.make (n + m) 0 in
    Array.blit b.instrs 0 out 0 !pos;
    Array.blit ids 0 out !pos m;
    Array.blit b.instrs !pos out (!pos + m) (n - !pos);
    b.instrs <- out;
    Array.iter (fun id -> (instr f id).block <- b.bid) ids
  end

(* Splice [ids] at the head of block [bid] (after any phis). *)
let insert_at_head f ~bid ids =
  if ids <> [] then begin
    let b = f.blocks.(bid) in
    let is_phi id = match (instr f id).kind with Phi _ -> true | _ -> false in
    let nphi = ref 0 in
    let n = Array.length b.instrs in
    while !nphi < n && is_phi b.instrs.(!nphi) do incr nphi done;
    let ids = Array.of_list ids in
    let m = Array.length ids in
    let out = Array.make (n + m) 0 in
    Array.blit b.instrs 0 out 0 !nphi;
    Array.blit ids 0 out !nphi m;
    Array.blit b.instrs !nphi out (!nphi + m) (n - !nphi);
    b.instrs <- out;
    Array.iter (fun id -> (instr f id).block <- b.bid) ids
  end

(* Remove an instruction: delete it from its block's list and clear its
   table slot.  The caller must ensure nothing references it. *)
let remove_instr f id =
  let i = instr f id in
  let b = f.blocks.(i.block) in
  b.instrs <- Array.of_list (List.filter (( <> ) id) (Array.to_list b.instrs));
  f.itab.(id) <- None

(* Deep copy with identical ids: fresh instruction records and block
   arrays so mutations of the clone never reach the original. *)
let clone_func f =
  {
    fname = f.fname;
    blocks =
      Array.map
        (fun b ->
          { bid = b.bid; instrs = Array.copy b.instrs; term = b.term;
            bname = b.bname })
        f.blocks;
    itab =
      Array.map
        (function
          | Some i ->
              Some { id = i.id; kind = i.kind; block = i.block; name = i.name }
          | None -> None)
        f.itab;
    n_instrs = f.n_instrs;
    entry = f.entry;
    param_ids = Array.copy f.param_ids;
  }

(* Splice [ids] at the end of block [bid] (just before the terminator). *)
let insert_at_end f ~bid ids =
  if ids <> [] then begin
    let b = f.blocks.(bid) in
    b.instrs <- Array.append b.instrs (Array.of_list ids);
    List.iter (fun id -> (instr f id).block <- bid) ids
  end

(* ------------------------------------------------------------------ *)
(* Structural signature                                                *)
(* ------------------------------------------------------------------ *)

(* A stable, name-independent encoding of a function's structure: entry
   block, parameter ids, and every block's instruction ids, kinds (with
   operands rendered exactly — floats by their bit pattern) and
   terminator.  Two functions with equal signatures execute identically
   instruction-for-instruction, which is what lets the tape engine cache
   decoded micro-op programs across rebuilds of the same workload (see
   Tape in lib/sim).  Printing hints ([name]/[bname]/[fname]) are
   deliberately excluded so cosmetic renames do not defeat the cache. *)

let signature f =
  let b = Buffer.create 1024 in
  let int n = Buffer.add_string b (string_of_int n); Buffer.add_char b ',' in
  let operand = function
    | Var v -> Buffer.add_char b 'v'; int v
    | Imm n -> Buffer.add_char b 'i'; int n
    | Fimm x ->
        Buffer.add_char b 'f';
        Buffer.add_string b (Int64.to_string (Int64.bits_of_float x));
        Buffer.add_char b ','
  in
  let ty t = Buffer.add_string b (string_of_ty t); Buffer.add_char b ',' in
  let kind = function
    | Binop (op, x, y) ->
        Buffer.add_char b 'B'; Buffer.add_string b (string_of_binop op);
        Buffer.add_char b ','; operand x; operand y
    | Cmp (p, x, y) ->
        Buffer.add_char b 'C'; Buffer.add_string b (string_of_cmp p);
        Buffer.add_char b ','; operand x; operand y
    | Select (c, x, y) -> Buffer.add_char b 'S'; operand c; operand x; operand y
    | Load (t, a) -> Buffer.add_char b 'L'; ty t; operand a
    | Store (t, a, v) -> Buffer.add_char b 'W'; ty t; operand a; operand v
    | Gep { base; index; scale } ->
        Buffer.add_char b 'G'; operand base; operand index; int scale
    | Phi incoming ->
        Buffer.add_char b 'P';
        List.iter (fun (blk, v) -> int blk; operand v) incoming
    | Call { callee; args; pure } ->
        Buffer.add_char b 'F';
        Buffer.add_string b callee;
        Buffer.add_char b (if pure then 'p' else 'e');
        List.iter operand args
    | Prefetch a -> Buffer.add_char b 'H'; operand a
    | Alloc a -> Buffer.add_char b 'A'; operand a
    | Param k -> Buffer.add_char b 'R'; int k
  in
  let term = function
    | Br s -> Buffer.add_char b 'b'; int s
    | Cbr (c, bt, bf) -> Buffer.add_char b 'c'; operand c; int bt; int bf
    | Ret None -> Buffer.add_char b 'r'
    | Ret (Some v) -> Buffer.add_char b 'R'; operand v
    | Unreachable -> Buffer.add_char b 'u'
  in
  int f.entry;
  Array.iter int f.param_ids;
  Buffer.add_char b '|';
  Array.iter
    (fun blk ->
      Buffer.add_char b '[';
      int blk.bid;
      Array.iter
        (fun id ->
          match f.itab.(id) with
          | Some i -> int i.id; kind i.kind
          | None -> ())
        blk.instrs;
      Buffer.add_char b ';';
      term blk.term;
      Buffer.add_char b ']')
    f.blocks;
  Buffer.contents b

let successors (t : terminator) : int list =
  match t with
  | Br b -> [ b ]
  | Cbr (_, b1, b2) -> if b1 = b2 then [ b1 ] else [ b1; b2 ]
  | Ret _ | Unreachable -> []

let term_srcs (t : terminator) : operand list =
  match t with
  | Br _ | Unreachable | Ret None -> []
  | Cbr (c, _, _) -> [ c ]
  | Ret (Some v) -> [ v ]
