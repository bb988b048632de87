module Ir = Spf_ir.Ir
module Parser = Spf_ir.Parser
module Printer = Spf_ir.Printer
module Memory = Spf_sim.Memory

(* Runnable IR test cases: a program plus the concrete environment it
   runs in, in one text file.  This is the format `spf validate` prints
   counterexamples in and the checked-in corpus is stored in:

     ;; spf-case v1
     !arg 4096
     !arg 8192
     !brk 12288
     !fuel 100000
     !mem 4096 01000000faffffff
     func kernel (2 params, entry bb0) {
       ...
     }

   Lines starting with `!` are environment directives ([!arg] in
   parameter order, [!mem ADDR HEXBYTES] for the non-zero spans of the
   image, [!brk] the mapping break, [!fuel] the block budget); `;;`
   lines are comments; everything else is the textual IR of the
   {e original} program.  [to_env] rebuilds an identical fresh
   environment on every call, which is what {!Model.confirm} needs. *)

type t = {
  func : Ir.func;
  args : int array;
  brk : int;
  fuel : int;
  writes : (int * string) list;  (** address, raw bytes *)
}

let magic = ";; spf-case v1"

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

(* Non-zero spans of a memory image, greedily merged so that short zero
   gaps don't multiply directives. *)
let spans_of_mem mem =
  let size = Memory.size mem in
  let byte a = Memory.load mem Ir.I8 a in
  let spans = ref [] in
  let a = ref 0 in
  while !a < size do
    if byte !a = 0 then incr a
    else begin
      let start = !a in
      let last = ref !a in
      let gap = ref 0 in
      let k = ref (!a + 1) in
      while !k < size && !gap < 16 do
        if byte !k <> 0 then begin
          last := !k;
          gap := 0
        end
        else incr gap;
        incr k
      done;
      let len = !last - start + 1 in
      let b = Bytes.init len (fun i -> Char.chr (byte (start + i))) in
      spans := (start, Bytes.to_string b) :: !spans;
      a := !last + 1
    end
  done;
  List.rev !spans

let of_concrete ~func ~mem ~args ~fuel =
  {
    func;
    args = Array.copy args;
    brk = Memory.size mem;
    fuel;
    writes = spans_of_mem mem;
  }

let to_string t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  Buffer.add_char buf '\n';
  Array.iter (fun v -> Buffer.add_string buf (Printf.sprintf "!arg %d\n" v)) t.args;
  Buffer.add_string buf (Printf.sprintf "!brk %d\n" t.brk);
  Buffer.add_string buf (Printf.sprintf "!fuel %d\n" t.fuel);
  List.iter
    (fun (addr, bytes) ->
      Buffer.add_string buf
        (Printf.sprintf "!mem %d %s\n" addr (Spf_harness.Journal.to_hex bytes)))
    t.writes;
  Buffer.add_string buf (Printer.func_to_string t.func);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

let parse text =
  let args = ref [] and brk = ref 4096 and fuel = ref 100_000 in
  let writes = ref [] in
  let ir_lines = ref [] in
  List.iteri
    (fun lineno raw ->
      let line = lineno + 1 in
      let s = String.trim raw in
      if String.length s >= 2 && String.sub s 0 2 = ";;" then ()
      else if String.length s >= 1 && s.[0] = '!' then begin
        match String.split_on_char ' ' s |> List.filter (( <> ) "") with
        | [ "!arg"; v ] -> args := int_of_string v :: !args
        | [ "!brk"; v ] -> brk := int_of_string v
        | [ "!fuel"; v ] -> fuel := int_of_string v
        | [ "!mem"; a; hex ] -> (
            match Spf_harness.Journal.of_hex hex with
            | Some bytes -> writes := (int_of_string a, bytes) :: !writes
            | None ->
                raise (Parser.Parse_error { line; msg = "bad hex in !mem" }))
        | _ ->
            raise (Parser.Parse_error { line; msg = "unknown case directive: " ^ s })
      end
      else ir_lines := raw :: !ir_lines)
    (String.split_on_char '\n' text);
  let func = Parser.parse (String.concat "\n" (List.rev !ir_lines)) in
  {
    func;
    args = Array.of_list (List.rev !args);
    brk = !brk;
    fuel = !fuel;
    writes = List.rev !writes;
  }

let load path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  parse text

let save path t =
  let oc = open_out_bin path in
  output_string oc (to_string t);
  close_out oc

(* ------------------------------------------------------------------ *)
(* Environment construction                                            *)
(* ------------------------------------------------------------------ *)

let build_memory t =
  let initial =
    let n = ref 4096 in
    while !n < t.brk do
      n := !n * 2
    done;
    !n
  in
  let mem = Memory.create ~initial () in
  (* [alloc] from the initial break of 4096 is already line-aligned, so
     this lands the break exactly on [t.brk]. *)
  if t.brk > Memory.size mem then ignore (Memory.alloc mem (t.brk - Memory.size mem));
  if t.brk < Memory.size mem then Memory.truncate mem t.brk;
  List.iter
    (fun (addr, bytes) ->
      String.iteri
        (fun i c -> Memory.store mem Ir.I8 (addr + i) (Char.code c))
        bytes)
    t.writes;
  mem

let to_env t : Model.env =
  { Model.fresh = (fun () -> (build_memory t, Array.copy t.args)); fuel = t.fuel }
