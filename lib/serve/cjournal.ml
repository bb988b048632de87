(* The result-cache journal behind `spf serve --cache-journal DIR`: an
   append-only record of every cache insertion, replayed on startup so a
   restarted daemon answers previously-seen work warm instead of
   re-simulating it.

   Durability discipline (the same idioms as the campaign checkpoint
   journal in lib/harness/journal.ml, adapted for append-heavy use):

   - the header names the format version and an *identity* digest over
     everything that could silently change a cached reply body — the
     canonical renders of every machine model, the engine list, the
     default pass config and the body-format version.  A journal written
     by a build with different semantics is refused loudly, never
     half-loaded;
   - every record line carries an MD5 of its tag+key+payload.  A
     checksum mismatch, undecodable payload or malformed line anywhere
     but the torn tail rejects the journal (that is corruption: replaying
     it could serve corrupted replies);
   - appends are single [output_string]+[flush] writes of one complete
     line, so a crash (SIGKILL included) can only tear the *final* line,
     and only by cutting its trailing newline off.  A file whose last
     line is unterminated therefore lost at most that one record: the
     tail is dropped, counted, and the journal immediately compacted so
     the file is whole again;
   - compaction rewrites the whole journal to [.tmp] and atomically
     renames it over the live file — a kill at any point leaves either
     the old journal or the new one, never a torn file.

   Payloads are hex-encoded so the file stays line-oriented regardless
   of payload bytes (reply bodies and IR text contain newlines).

   NOT thread-safe: the owning {!Rcache} serializes all calls under its
   own lock. *)

let format_header = "spf-cache-journal 1"

(* Bump when the rendered reply-body format changes in a way the cache
   keys cannot see (they digest inputs, not the rendering). *)
let body_format_version = 1

type record =
  | Pass of string * string  (* key, encoded pass entry *)
  | Sim of string * string  (* key, rendered reply body *)

type t = {
  dir : string;
  path : string;
  mutable oc : out_channel;
  mutable appends : int;  (* record lines since the last compaction *)
  mutable compactions : int;
  replayed_pass : int;
  replayed_sim : int;
  truncated : bool;  (* a torn tail record was dropped at open *)
  replayed : record list;  (* oldest first *)
}

let dir t = t.dir
let path t = t.path
let appends t = t.appends
let compactions t = t.compactions
let replayed_pass t = t.replayed_pass
let replayed_sim t = t.replayed_sim
let truncated t = t.truncated
let replayed t = t.replayed

let identity () =
  let b = Buffer.create 512 in
  Buffer.add_string b (Printf.sprintf "body-format %d\n" body_format_version);
  List.iter
    (fun m ->
      Buffer.add_string b (Spf_sim.Machine.canonical m);
      Buffer.add_char b '\n')
    Spf_sim.Machine.all;
  List.iter
    (fun e ->
      Buffer.add_string b (Spf_sim.Engine.to_string e);
      Buffer.add_char b '\n')
    Spf_sim.Engine.all;
  Buffer.add_string b (Spf_core.Config.canonical Spf_core.Config.default);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ------------------------------------------------------------------ *)

(* Table-driven hex: every record append encodes its whole payload and
   every warm start decodes the whole journal, so neither may cost an
   allocation per byte.  Output is lowercase; input accepts either
   case. *)

let hex_digits = "0123456789abcdef"

let to_hex s =
  let n = String.length s in
  let b = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let c = Char.code (String.unsafe_get s i) in
    Bytes.unsafe_set b (2 * i) (String.unsafe_get hex_digits (c lsr 4));
    Bytes.unsafe_set b ((2 * i) + 1) (String.unsafe_get hex_digits (c land 15))
  done;
  Bytes.unsafe_to_string b

(* Digit value of every byte, -1 for non-digits. *)
let nibbles =
  Array.init 256 (fun c ->
      match Char.chr c with
      | '0' .. '9' -> c - Char.code '0'
      | 'a' .. 'f' -> c - Char.code 'a' + 10
      | 'A' .. 'F' -> c - Char.code 'A' + 10
      | _ -> -1)

let of_hex s =
  let n = String.length s in
  if n mod 2 <> 0 then None
  else
    let b = Bytes.create (n / 2) in
    let rec go i =
      if i >= n / 2 then Some (Bytes.unsafe_to_string b)
      else
        let hi = nibbles.(Char.code s.[2 * i])
        and lo = nibbles.(Char.code s.[(2 * i) + 1]) in
        if hi < 0 || lo < 0 then None
        else begin
          Bytes.unsafe_set b i (Char.unsafe_chr ((hi lsl 4) lor lo));
          go (i + 1)
        end
    in
    go 0

let tag_of = function Pass _ -> "P" | Sim _ -> "S"
let key_of = function Pass (k, _) | Sim (k, _) -> k
let payload_of = function Pass (_, p) | Sim (_, p) -> p

let checksum ~tag ~key ~hex =
  Digest.to_hex (Digest.string (tag ^ " " ^ key ^ " " ^ hex))

let record_line r =
  let tag = tag_of r and key = key_of r in
  let hex = to_hex (payload_of r) in
  Printf.sprintf "%s %s %s %s\n" tag (checksum ~tag ~key ~hex) key hex

let corrupt path msg =
  failwith
    (Printf.sprintf
       "cache journal %s is not usable: %s (delete it to start the cache \
        cold)"
       path msg)

let validate_key key =
  if key = "" || String.exists (fun c -> c = ' ' || c = '\n' || c = '\r') key
  then invalid_arg ("Cjournal: bad record key " ^ String.escaped key)

type line = string

let encode r =
  validate_key (key_of r);
  record_line r

(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Parse an existing journal image.  Returns the replayed records
   (oldest first) and whether a torn tail was dropped.  @raise Failure
   on header/identity mismatch or any corruption before the tail. *)
let parse path contents =
  let ends_clean =
    String.length contents = 0
    || contents.[String.length contents - 1] = '\n'
  in
  let lines = String.split_on_char '\n' contents in
  (* [split_on_char] leaves a final "" element when the file ends with a
     newline; when it does not, the final element is the torn record. *)
  let lines =
    match List.rev lines with
    | "" :: rest when ends_clean -> List.rev rest
    | _ -> lines
  in
  (match lines with
  | header :: _ when header = format_header -> ()
  | header :: _ ->
      corrupt path
        (Printf.sprintf "unrecognised header %S (expected %S)" header
           format_header)
  | [] -> corrupt path "empty file");
  (match lines with
  | _ :: id_line :: _ -> (
      match String.split_on_char ' ' id_line with
      | [ "identity"; found ] ->
          let want = identity () in
          if found <> want then
            failwith
              (Printf.sprintf
                 "cache journal %s was written under a different \
                  machine/engine/config identity:\n\
                 \  journal:   %s\n\
                 \  this build: %s\n\
                  (delete it to start the cache cold)"
                 path found want)
      | _ -> corrupt path "missing identity line")
  | _ -> corrupt path "missing identity line");
  let records = List.filteri (fun i _ -> i >= 2) lines in
  let n_records = List.length records in
  let out = ref [] in
  let truncated = ref false in
  List.iteri
    (fun i line ->
      let is_tail = i = n_records - 1 && not ends_clean in
      let reject msg =
        if is_tail then truncated := true else corrupt path msg
      in
      if line = "" then
        reject (Printf.sprintf "blank line at record %d" i)
      else
        match String.split_on_char ' ' line with
        | [ tag; sum; key; hex ] when tag = "P" || tag = "S" -> (
            if checksum ~tag ~key ~hex <> sum then
              reject
                (Printf.sprintf "checksum mismatch on record for key %s" key)
            else
              match of_hex hex with
              | None ->
                  reject
                    (Printf.sprintf "undecodable payload for key %s" key)
              | Some payload ->
                  let r =
                    if tag = "P" then Pass (key, payload)
                    else Sim (key, payload)
                  in
                  out := r :: !out)
        | _ -> reject (Printf.sprintf "malformed record line %d: %S" i line))
    records;
  (List.rev !out, !truncated)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let write_image path records =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc (format_header ^ "\n");
  output_string oc ("identity " ^ identity () ^ "\n");
  List.iter (fun r -> output_string oc (record_line r)) records;
  close_out oc;
  Sys.rename tmp path

let open_append path = open_out_gen [ Open_append; Open_creat ] 0o644 path

let open_ ~dir =
  if not (Sys.file_exists dir) then mkdir_p dir
  else if not (Sys.is_directory dir) then
    failwith (Printf.sprintf "cache-journal path %s is not a directory" dir);
  let path = Filename.concat dir "cache-journal" in
  let records, truncated =
    if Sys.file_exists path then parse path (read_file path) else ([], false)
  in
  (* A torn tail means the file does not end in a whole line; compact
     immediately so subsequent appends land on a clean boundary. *)
  if truncated || not (Sys.file_exists path) then write_image path records;
  let rp, rs =
    List.fold_left
      (fun (p, s) -> function Pass _ -> (p + 1, s) | Sim _ -> (p, s + 1))
      (0, 0) records
  in
  {
    dir;
    path;
    oc = open_append path;
    appends = 0;
    compactions = (if truncated then 1 else 0);
    replayed_pass = rp;
    replayed_sim = rs;
    truncated;
    replayed = records;
  }

let append_line t line =
  output_string t.oc line;
  flush t.oc;
  t.appends <- t.appends + 1

let append t r = append_line t (encode r)

let compact t records =
  close_out_noerr t.oc;
  write_image t.path records;
  t.oc <- open_append t.path;
  t.appends <- 0;
  t.compactions <- t.compactions + 1

let close t = close_out_noerr t.oc
