module Ir = Spf_ir.Ir

(* Versioned on-disk profile: the per-loop distance choices a profiling run
   of the simulator measured, stamped with a digest of the *plain* (pre-
   pass) program so stale or mismatched hints are rejected instead of
   silently misapplied.  Loop headers are block ids of that plain program;
   the pass never renumbers blocks, so they remain valid when the profile
   is consumed by a later pass over the same program.

   The format is a small, self-describing JSON object; the parser below
   accepts exactly the subset this module writes (objects, arrays, strings,
   integers, booleans) and reports position-free but field-precise
   errors — good enough for a file we also author. *)

type loop_entry = {
  header : int;
  c : int; (* chosen eq. 1 constant term *)
  enabled : bool;
  accesses : int; (* demand loads attributed to the loop when measured *)
  misses : int; (* DRAM fills attributed to the loop when measured *)
}

type t = {
  version : int;
  signature : string; (* Digest.to_hex of Ir.signature of the plain program *)
  machine : string;
  default_c : int;
  loops : loop_entry list;
}

let version = 1
let signature_of func = Digest.to_hex (Digest.string (Ir.signature func))

let make ~func ~machine ~default_c ~loops =
  { version; signature = signature_of func; machine; default_c; loops }

(* A profile is a per-loop table: a disabled loop is an entry <= 0, and
   an unprofiled loop falls back to eq. 1 with the pass-wide constant. *)
let provider t =
  Distance.Fixed
    {
      default_c = None;
      per_loop =
        List.map (fun e -> (e.header, if e.enabled then e.c else 0)) t.loops;
    }

(* Writer. *)

let save path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let b = Buffer.create 512 in
      Buffer.add_string b "{\n";
      Printf.bprintf b "  \"version\": %d,\n" t.version;
      Printf.bprintf b "  \"signature\": \"%s\",\n" t.signature;
      Printf.bprintf b "  \"machine\": \"%s\",\n" t.machine;
      Printf.bprintf b "  \"default_c\": %d,\n" t.default_c;
      Buffer.add_string b "  \"loops\": [";
      List.iteri
        (fun k e ->
          if k > 0 then Buffer.add_char b ',';
          Printf.bprintf b
            "\n    { \"header\": %d, \"c\": %d, \"enabled\": %b, \
             \"accesses\": %d, \"misses\": %d }"
            e.header e.c e.enabled e.accesses e.misses)
        t.loops;
      Buffer.add_string b "\n  ]\n}\n";
      output_string oc (Buffer.contents b))

(* Reader: a recursive-descent parser for the JSON subset above. *)

exception Bad of string

type json =
  | Obj of (string * json) list
  | Arr of json list
  | Str of string
  | Int of int
  | Bool of bool

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect ch =
    skip_ws ();
    if peek () <> ch then
      raise (Bad (Printf.sprintf "expected '%c' at byte %d" ch !pos));
    advance ()
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> advance ()
      | '\000' -> raise (Bad "unterminated string")
      | '\\' ->
          advance ();
          (match peek () with
          | '"' | '\\' | '/' -> Buffer.add_char b (peek ())
          | c -> raise (Bad (Printf.sprintf "unsupported escape '\\%c'" c)));
          advance ();
          go ()
      | c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then (
          advance ();
          Obj [])
        else begin
          let rec members acc =
            let k = string_lit () in
            expect ':';
            let v = value () in
            skip_ws ();
            match peek () with
            | ',' ->
                advance ();
                skip_ws ();
                members ((k, v) :: acc)
            | '}' ->
                advance ();
                List.rev ((k, v) :: acc)
            | _ -> raise (Bad "expected ',' or '}' in object")
          in
          Obj (members [])
        end
    | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then (
          advance ();
          Arr [])
        else begin
          let rec elems acc =
            let v = value () in
            skip_ws ();
            match peek () with
            | ',' ->
                advance ();
                elems (v :: acc)
            | ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> raise (Bad "expected ',' or ']' in array")
          in
          Arr (elems [])
        end
    | '"' -> Str (string_lit ())
    | 't' ->
        if !pos + 4 <= n && String.sub s !pos 4 = "true" then (
          pos := !pos + 4;
          Bool true)
        else raise (Bad "bad literal")
    | 'f' ->
        if !pos + 5 <= n && String.sub s !pos 5 = "false" then (
          pos := !pos + 5;
          Bool false)
        else raise (Bad "bad literal")
    | '-' | '0' .. '9' ->
        let start = !pos in
        if peek () = '-' then advance ();
        while match peek () with '0' .. '9' -> true | _ -> false do
          advance ()
        done;
        if !pos = start then raise (Bad "bad number");
        Int (int_of_string (String.sub s start (!pos - start)))
    | c -> raise (Bad (Printf.sprintf "unexpected character '%c'" c))
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then raise (Bad "trailing garbage after document");
  v

let field name = function
  | Obj kvs -> (
      match List.assoc_opt name kvs with
      | Some v -> v
      | None -> raise (Bad (Printf.sprintf "missing field %S" name)))
  | _ -> raise (Bad (Printf.sprintf "expected an object holding %S" name))

let as_int name = function
  | Int k -> k
  | _ -> raise (Bad (Printf.sprintf "field %S: expected an integer" name))

let as_str name = function
  | Str s -> s
  | _ -> raise (Bad (Printf.sprintf "field %S: expected a string" name))

let as_bool name = function
  | Bool b -> b
  | _ -> raise (Bad (Printf.sprintf "field %S: expected a boolean" name))

let of_json j =
  let v = as_int "version" (field "version" j) in
  if v <> version then
    raise
      (Bad
         (Printf.sprintf
            "profile version %d not supported (this build writes version %d); \
             re-run `spf profile`"
            v version));
  let entry e =
    let e =
      {
        header = as_int "header" (field "header" e);
        c = as_int "c" (field "c" e);
        enabled = as_bool "enabled" (field "enabled" e);
        accesses = as_int "accesses" (field "accesses" e);
        misses = as_int "misses" (field "misses" e);
      }
    in
    (* The provider table reads c <= 0 as "disabled", so an enabled loop
       needs a positive distance. *)
    if e.enabled && e.c <= 0 then
      raise
        (Bad
           (Printf.sprintf "loop bb%d is enabled with c = %d; a prefetched \
                            loop needs c >= 1"
              e.header e.c));
    e
  in
  {
    version = v;
    signature = as_str "signature" (field "signature" j);
    machine = as_str "machine" (field "machine" j);
    default_c = as_int "default_c" (field "default_c" j);
    loops =
      (match field "loops" j with
      | Arr es -> List.map entry es
      | _ -> raise (Bad "field \"loops\": expected an array"));
  }

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error msg
  | contents -> (
      match of_json (parse_json contents) with
      | t -> Ok t
      | exception Bad msg -> Error (Printf.sprintf "%s: %s" path msg))

(* Staleness check: the profile must have been measured on exactly this
   (plain) program.  A machine mismatch is reported too — distances tuned
   for one memory system are at best approximate on another. *)
let check t ~func ~machine =
  let sg = signature_of func in
  if not (String.equal t.signature sg) then
    Error
      (Printf.sprintf
         "profile was measured on a different program (signature %s, this \
          program is %s); re-run `spf profile` on the current program"
         t.signature sg)
  else if not (String.equal t.machine machine) then
    Error
      (Printf.sprintf
         "profile was measured on machine %S but this run targets %S; \
          re-run `spf profile` for the target machine"
         t.machine machine)
  else Ok ()
