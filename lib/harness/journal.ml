(* Append-only, crash-safe journals: one log format and one durability
   discipline, shared by both callers —

   - the campaign checkpoint behind `--resume` ({!start} below): each
     record is a completed cell of a figure or fuzz run (key, payload —
     typically a Marshal image), so a resumed campaign reproduces
     byte-identical output without re-running the work;
   - the serve result-cache journal behind `spf serve --cache-journal`
     (Spf_serve.Rcache): each record is a cache insertion, replayed at
     startup so a restarted daemon answers warm.

   File format, line-oriented:

     <header>                  format name and version
     <field> <identity>        what the records are valid for
     <tag> <md5> <key> <hex>   one line per record, oldest first

   Durability discipline:
   - the header pins the format version and the identity line pins what
     must match for the records to be reusable (the campaign string plus
     the digest of the executable that wrote it; the serve build's
     semantics digest).  A mismatch is refused loudly, never
     half-loaded;
   - every record line carries an MD5 of its tag, key and hex payload;
   - an append is one whole line, written and flushed, so a crash
     (SIGKILL included) can only tear the final line, and a line counts
     only once its newline is on disk.  A file whose last line is
     unterminated lost at most that one record: it is dropped and the
     file compacted at once, so later appends start on a clean line;
   - compaction writes the whole image to [.tmp] and renames it over the
     file — a kill at any point leaves the old file or the new one;
   - any other damage (bad checksum, malformed line, a tag the caller
     does not write, undecodable payload, wrong header) is refused: it
     means tampering or a disk fault, and replaying it would silently
     corrupt results.

   Payloads are hex-encoded so the file stays line-oriented whatever the
   payload bytes.  A key replayed twice keeps its later record. *)

(* --- hex codec ---------------------------------------------------------- *)

(* Table-driven: every append encodes its whole payload and every replay
   decodes the whole file, so neither may cost an allocation per byte.
   Output is lowercase; input accepts either case. *)

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

(* --- the log ------------------------------------------------------------ *)

type format = {
  header : string;
  field : string;
  identity : string;
  tags : string list;
  noun : string;
  remedy : string;
  mismatch : path:string -> found:string -> string;
}

type record = { tag : string; key : string; payload : string }

type log = {
  fmt : format;
  path : string;
  mutable oc : out_channel;
  mutable appends : int; (* record lines since the last compaction *)
  mutable compactions : int;
  truncated : bool; (* a torn final record was dropped at open *)
}

let appends l = l.appends
let compactions l = l.compactions
let truncated l = l.truncated

let corrupt fmt path msg =
  failwith
    (Printf.sprintf "%s %s is not usable: %s (delete it to %s)" fmt.noun path
       msg fmt.remedy)

let refuse l msg = corrupt l.fmt l.path msg

let checksum ~tag ~key ~hex =
  Digest.to_hex (Digest.string (tag ^ " " ^ key ^ " " ^ hex))

type line = string

let encode { tag; key; payload } =
  if key = "" || String.exists (fun c -> c = ' ' || c = '\n' || c = '\r') key
  then invalid_arg ("Journal: bad record key " ^ String.escaped key);
  let hex = to_hex payload in
  String.concat "" [ tag; " "; checksum ~tag ~key ~hex; " "; key; " "; hex; "\n" ]

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* Parse an existing image: the records oldest first, and whether a torn
   final line was dropped.  @raise Failure on any other damage. *)
let parse fmt path contents =
  (* [split_on_char] leaves a final "" when the file ends with a newline;
     otherwise the final element is a torn, uncommitted line. *)
  let lines, torn =
    match List.rev (String.split_on_char '\n' contents) with
    | last :: rest -> (List.rev rest, last <> "")
    | [] -> ([], false)
  in
  (match lines with
  | header :: _ when header = fmt.header -> ()
  | header :: _ ->
      corrupt fmt path
        (Printf.sprintf "unrecognised header %S (expected %S)" header
           fmt.header)
  | [] -> corrupt fmt path "empty file");
  let prefix = fmt.field ^ " " in
  (match lines with
  | _ :: id_line :: _ when String.starts_with ~prefix id_line ->
      let found =
        String.sub id_line (String.length prefix)
          (String.length id_line - String.length prefix)
      in
      if found <> fmt.identity then failwith (fmt.mismatch ~path ~found)
  | _ -> corrupt fmt path (Printf.sprintf "missing %s line" fmt.field));
  let records =
    List.filteri (fun i _ -> i >= 2) lines
    |> List.mapi (fun i line ->
           match String.split_on_char ' ' line with
           | [ tag; sum; key; hex ] when List.mem tag fmt.tags -> (
               if checksum ~tag ~key ~hex <> sum then
                 corrupt fmt path
                   (Printf.sprintf "checksum mismatch on record for key %s" key);
               match of_hex hex with
               | Some payload -> { tag; key; payload }
               | None ->
                   corrupt fmt path
                     (Printf.sprintf "undecodable payload for key %s" key))
           | _ ->
               corrupt fmt path
                 (Printf.sprintf "malformed record line %d: %S" i line))
  in
  (records, torn)

let write_image fmt path records =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc (fmt.header ^ "\n" ^ fmt.field ^ " " ^ fmt.identity ^ "\n");
  List.iter (fun r -> output_string oc (encode r)) records;
  close_out oc;
  Sys.rename tmp path

let open_append path = open_out_gen [ Open_append; Open_creat ] 0o644 path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    (* A concurrent creator is fine — only a still-missing dir is an error. *)
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let open_log fmt ~dir ~file =
  if String.contains fmt.identity '\n' then
    invalid_arg "Journal.open_log: identity must be a single line";
  if not (Sys.file_exists dir) then mkdir_p dir
  else if not (Sys.is_directory dir) then
    failwith (Printf.sprintf "%s directory %s is not a directory" fmt.noun dir);
  let path = Filename.concat dir file in
  let exists = Sys.file_exists path in
  let records, truncated =
    if exists then parse fmt path (read_file path) else ([], false)
  in
  if truncated || not exists then write_image fmt path records;
  let log =
    {
      fmt;
      path;
      oc = open_append path;
      appends = 0;
      compactions = (if truncated then 1 else 0);
      truncated;
    }
  in
  (log, records)

let append l line =
  output_string l.oc line;
  flush l.oc;
  l.appends <- l.appends + 1

let compact l records =
  close_out_noerr l.oc;
  write_image l.fmt l.path records;
  l.oc <- open_append l.path;
  l.appends <- 0;
  l.compactions <- l.compactions + 1

let close l = close_out_noerr l.oc

(* --- the campaign checkpoint -------------------------------------------- *)

type t = {
  log : log;
  tbl : (string, string) Hashtbl.t; (* key -> payload *)
  lock : Mutex.t; (* pool workers record their own completions *)
}

let checkpoint_tag = "C"

(* Checkpoint payloads are Marshal images, and decoding one written by a
   build whose payload types differ does not fail: it yields a value of
   the wrong shape.  So the identity also pins the running executable,
   and a journal resumes only under the build that wrote it.  Hashed on
   first use, a few ms for the CLI; callers open journals before any
   worker domain starts, so the lazy value is never forced twice at
   once. *)
let build_digest = lazy (Digest.to_hex (Digest.file Sys.executable_name))

let start ~dir ~campaign =
  let identity = campaign ^ " build=" ^ Lazy.force build_digest in
  let fmt =
    {
      header = "spf-checkpoint 2";
      field = "campaign";
      identity;
      tags = [ checkpoint_tag ];
      noun = "checkpoint journal";
      remedy = "start the campaign over";
      mismatch =
        (fun ~path ~found ->
          Printf.sprintf
            "checkpoint journal %s belongs to a different campaign:\n\
            \  journal: %s\n  requested: %s"
            path found identity);
    }
  in
  let log, records = open_log fmt ~dir ~file:"journal" in
  let tbl = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace tbl r.key r.payload) records;
  { log; tbl; lock = Mutex.create () }

let file t = t.log.path

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let completed t = locked t (fun () -> Hashtbl.length t.tbl)
let find t key = locked t (fun () -> Hashtbl.find_opt t.tbl key)

let record t ~key ~payload =
  let line = encode { tag = checkpoint_tag; key; payload } in
  locked t (fun () ->
      if not (Hashtbl.mem t.tbl key) then begin
        Hashtbl.add t.tbl key payload;
        append t.log line
      end)
