(* The append-only journal shared by the campaign checkpoint (`--resume`)
   and the serve result cache (`spf serve --cache-journal`): the
   pass-entry codec round-trips arbitrary entries, an append/reopen cycle
   replays exactly what was written, the cache's record line is pinned
   byte for byte, and one damage matrix runs against both callers — a
   torn tail (the only damage a crash can inflict, by construction) is
   dropped and healed, every other kind of damage (a tag the caller
   does not write included) is refused loudly rather than half-loaded,
   and a key replayed twice keeps its later record.  See
   docs/ROBUSTNESS.md. *)

module Rcache = Spf_serve.Rcache
module Journal = Spf_harness.Journal
module Pass = Spf_core.Pass
module Distance = Spf_core.Distance

(* ------------------------------------------------------------------ *)
(* Scratch directories. *)

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "spf-cj-test-%d-%d" (Unix.getpid ()) !n)
    in
    if Sys.file_exists d then
      Array.iter
        (fun f -> Sys.remove (Filename.concat d f))
        (Sys.readdir d)
    else Sys.mkdir d 0o755;
    d

let rm_rf d =
  if Sys.file_exists d then begin
    Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
    Sys.rmdir d
  end

let with_dir f =
  let d = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Pass-entry codec: round-trip over arbitrary entries.  Payload text
   (IR, report lines) contains newlines and arbitrary bytes; loop
   distances carry an optional slot; adaptive params are optional. *)

let ld_gen =
  QCheck.Gen.(
    let* header = int_bound 999 in
    let* distance = int_range 1 4096 in
    let* enabled = bool in
    let* dist_slot = opt (int_bound 7) in
    return { Pass.header; distance; enabled; dist_slot })

let entry_gen =
  QCheck.Gen.(
    let* tfunc_text = string_size (int_bound 200) in
    let* report_text = string_size (int_bound 120) in
    let* loop_distances = list_size (int_bound 4) ld_gen in
    let* adaptive =
      opt
        (let* window = int_range 1 1024 in
         let* min_c = int_range 1 64 in
         let* max_c = int_range 64 4096 in
         return { Distance.window; min_c; max_c })
    in
    return { Rcache.tfunc_text; report_text; loop_distances; adaptive })

let entry_arb = QCheck.make entry_gen

let prop_codec_round_trip =
  QCheck.Test.make ~name:"pass-entry codec round-trips" ~count:300 entry_arb
    (fun e ->
      match Rcache.decode_pass_entry (Rcache.encode_pass_entry e) with
      | None -> false
      | Some e' -> e' = e)

let prop_decode_never_raises =
  QCheck.Test.make ~name:"decode_pass_entry never raises" ~count:300
    QCheck.(string_gen QCheck.Gen.char)
    (fun s ->
      match Rcache.decode_pass_entry s with
      | Some _ | None -> true)

(* ------------------------------------------------------------------ *)
(* The log itself: append / reopen replays every record verbatim,
   oldest first, duplicates and arbitrary payload bytes included. *)

let test_format =
  {
    Journal.header = "spf-test-log 1";
    field = "identity";
    identity = "round-trip";
    tags = [ "P"; "S" ];
    noun = "test log";
    remedy = "start over";
    mismatch = (fun ~path ~found -> path ^ " " ^ found);
  }

let sample_records =
  [
    { Journal.tag = "S"; key = "sim:a"; payload = "R body\nS line\nV ok\n" };
    { Journal.tag = "P"; key = "pass:b"; payload = "arbitrary \x00 payload\nbytes" };
    { Journal.tag = "S"; key = "sim:c"; payload = "" };
    { Journal.tag = "S"; key = "sim:a"; payload = "a later duplicate" };
  ]

let test_replay_round_trip () =
  with_dir (fun dir ->
      let j, replayed = Journal.open_log test_format ~dir ~file:"log" in
      Alcotest.(check int) "fresh log replays nothing" 0 (List.length replayed);
      List.iter (fun r -> Journal.append j (Journal.encode r)) sample_records;
      Alcotest.(check int) "appends counted" 4 (Journal.appends j);
      Journal.close j;
      let j2, replayed = Journal.open_log test_format ~dir ~file:"log" in
      Alcotest.(check bool) "no tail recovery" false (Journal.truncated j2);
      Alcotest.(check bool) "records replayed verbatim, oldest first" true
        (replayed = sample_records);
      Journal.close j2)

let test_rejects_bad_key () =
  with_dir (fun dir ->
      let c = Rcache.create ~journal_dir:dir () in
      Fun.protect
        ~finally:(fun () -> Rcache.close_journal c)
        (fun () ->
          List.iter
            (fun key ->
              match Rcache.add_sim c key "x" with
              | () -> Alcotest.fail ("accepted bad key " ^ String.escaped key)
              | exception Invalid_argument _ -> ())
            [ ""; "a b"; "a\nb" ]))

(* ------------------------------------------------------------------ *)
(* The cache's on-disk record format is pinned byte for byte: journals
   written by earlier builds must keep replaying, and the same request
   sequence must keep writing the same file.  The expected line below is
   the record the original per-byte [Printf "%02x"] encoder wrote for a
   payload holding every byte value once. *)

let all_bytes = String.init 256 Char.chr

let all_bytes_hex =
  "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f\
   202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f\
   404142434445464748494a4b4c4d4e4f505152535455565758595a5b5c5d5e5f\
   606162636465666768696a6b6c6d6e6f707172737475767778797a7b7c7d7e7f\
   808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f\
   a0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbebf\
   c0c1c2c3c4c5c6c7c8c9cacbcccdcecfd0d1d2d3d4d5d6d7d8d9dadbdcdddedf\
   e0e1e2e3e4e5e6e7e8e9eaebecedeeeff0f1f2f3f4f5f6f7f8f9fafbfcfdfeff"

let test_record_line_pinned () =
  with_dir (fun dir ->
      let c = Rcache.create ~journal_dir:dir () in
      Rcache.add_sim c "sim:pin" all_bytes;
      Rcache.close_journal c;
      let lines =
        String.split_on_char '\n' (read_file (Filename.concat dir "cache-journal"))
      in
      Alcotest.(check string) "header" "spf-cache-journal 1" (List.hd lines);
      Alcotest.(check string) "record line byte-identical"
        ("S 4379a331c1eda3b355dac03d8ff6e9bb sim:pin " ^ all_bytes_hex)
        (List.nth lines 2);
      Alcotest.(check int) "one record, newline-terminated" 4
        (List.length lines))

let test_hex_codec () =
  Alcotest.(check string) "to_hex is lowercase, two digits a byte"
    all_bytes_hex (Journal.to_hex all_bytes);
  Alcotest.(check (option string)) "of_hex inverts to_hex" (Some all_bytes)
    (Journal.of_hex all_bytes_hex);
  Alcotest.(check (option string)) "of_hex accepts upper case"
    (Some all_bytes)
    (Journal.of_hex (String.uppercase_ascii all_bytes_hex));
  Alcotest.(check (option string)) "empty" (Some "") (Journal.of_hex "");
  List.iter
    (fun bad ->
      Alcotest.(check (option string))
        ("rejects " ^ String.escaped bad)
        None (Journal.of_hex bad))
    [ "a"; "abc"; "zz"; "0g"; "_1"; "1_"; "3_"; " 1"; "0x"; "+1"; "-1"; "\xff0" ]

let prop_hex_round_trip =
  QCheck.Test.make ~name:"hex codec round-trips" ~count:300
    QCheck.(string_gen QCheck.Gen.char)
    (fun s -> Journal.of_hex (Journal.to_hex s) = Some s)

(* ------------------------------------------------------------------ *)
(* The damage matrix, run against both callers of the log.  A caller is
   how to write (key, payload) records through it, where its file lives,
   and how to reopen it; [load] raises [Failure] when it refuses. *)

type loaded = {
  find : string -> string option;
  live : int;
  image : string;  (** the file right after the open, before anything else *)
  recovered : bool option;  (** a torn tail reported, where observable *)
}

type caller = {
  tag : string;
  field : string;  (** keyword of the identity line *)
  file : string -> string;
  write : string -> (string * string) list -> unit;
  load : string -> loaded;
}

let cache =
  let file dir = Filename.concat dir "cache-journal" in
  {
    tag = "S";
    field = "identity";
    file;
    write =
      (fun dir kvs ->
        let c = Rcache.create ~journal_dir:dir () in
        List.iter (fun (k, v) -> Rcache.add_sim c k v) kvs;
        Rcache.close_journal c);
    load =
      (fun dir ->
        let c = Rcache.create ~journal_dir:dir () in
        let image = read_file (file dir) in
        Rcache.close_journal c;
        {
          find = Rcache.find_sim c;
          live = (Rcache.sim_stats c).Rcache.entries;
          image;
          recovered = Some (Rcache.journal_stats c).Rcache.recovered_truncated;
        });
  }

let checkpoint =
  let campaign = "damage-matrix seed=1" in
  {
    tag = "C";
    field = "campaign";
    file = (fun dir -> Filename.concat dir "journal");
    write =
      (fun dir kvs ->
        let j = Journal.start ~dir ~campaign in
        List.iter (fun (key, payload) -> Journal.record j ~key ~payload) kvs);
    load =
      (fun dir ->
        let j = Journal.start ~dir ~campaign in
        {
          find = Journal.find j;
          live = Journal.completed j;
          image = read_file (Journal.file j);
          recovered = None;
        });
  }

let samples =
  [
    ("key/0", "R body\nS line\nV ok\n");
    ("key/1", "arbitrary \x00 payload\nbytes");
    ("key/2", "");
  ]

(* Strip the trailing newline plus a few bytes — exactly the damage a
   mid-append SIGKILL can cause.  The journal must open, drop only the
   torn record, and leave the file whole (compacted) so the next open is
   clean. *)
let torn_tail c dir =
  c.write dir samples;
  let img = read_file (c.file dir) in
  write_file (c.file dir) (String.sub img 0 (String.length img - 5));
  let l = c.load dir in
  Option.iter (Alcotest.(check bool) "tail recovery reported" true) l.recovered;
  Alcotest.(check int) "only the torn record dropped" 2 l.live;
  Alcotest.(check (option string)) "survivors intact" (Some (List.assoc "key/1" samples))
    (l.find "key/1");
  Alcotest.(check (option string)) "torn record gone" None (l.find "key/2");
  let last_line = String.rindex_from img (String.length img - 2) '\n' + 1 in
  Alcotest.(check string) "healed at open: every whole line kept, the torn one cut"
    (String.sub img 0 last_line) l.image;
  let l2 = c.load dir in
  Option.iter (Alcotest.(check bool) "clean after heal" false) l2.recovered;
  Alcotest.(check int) "two records survive" 2 l2.live;
  Alcotest.(check string) "the next open leaves the file alone" l.image l2.image

let expect_refusal ?(advice = true) name c dir =
  match c.load dir with
  | _ -> Alcotest.fail (name ^ ": damaged journal loaded")
  | exception Failure msg ->
      Alcotest.(check bool) (name ^ ": error names the file") true
        (contains msg (c.file dir));
      if advice then
        Alcotest.(check bool) (name ^ ": error tells the operator what to do")
          true (contains msg "delete it")

(* Flip one payload byte of the *first* record (not the tail, so
   torn-tail tolerance cannot excuse it). *)
let flipped_byte c dir =
  c.write dir samples;
  let img = read_file (c.file dir) in
  let line_start = String.index_from img (String.index img '\n' + 1) '\n' + 1 in
  let pos = String.index_from img line_start '\n' - 1 in
  let b = Bytes.of_string img in
  Bytes.set b pos (if img.[pos] = '0' then '1' else '0');
  write_file (c.file dir) (Bytes.to_string b);
  expect_refusal "flipped byte" c dir

let identity_mismatch c dir =
  c.write dir samples;
  let lines = String.split_on_char '\n' (read_file (c.file dir)) in
  let forged =
    List.mapi
      (fun i l -> if i = 1 then c.field ^ " " ^ String.make 32 'f' else l)
      lines
  in
  write_file (c.file dir) (String.concat "\n" forged);
  expect_refusal ~advice:false "stale identity" c dir

let garbage_header c dir =
  write_file (c.file dir) "not a journal\nat all\n";
  expect_refusal "garbage header" c dir

let append_record c dir ~tag ~key payload =
  let oc = open_out_gen [ Open_append ] 0o644 (c.file dir) in
  output_string oc (Journal.encode { Journal.tag; key; payload } :> string);
  close_out oc

(* A well-formed record under a tag this caller never writes — the other
   caller's, say — is corruption too. *)
let foreign_tag c dir =
  c.write dir [ ("key/0", "first") ];
  append_record c dir ~tag:(if c.tag = "C" then "S" else "C") ~key:"key/1" "x";
  expect_refusal "foreign tag" c dir

(* Two records under one key — two writers racing, or a cache entry
   inserted twice: replay keeps the later one. *)
let later_duplicate_wins c dir =
  c.write dir [ ("key/0", "first") ];
  append_record c dir ~tag:c.tag ~key:"key/0" "second";
  let l = c.load dir in
  Alcotest.(check int) "one live record" 1 l.live;
  Alcotest.(check (option string)) "the later record wins" (Some "second")
    (l.find "key/0")

let damage_cases c =
  List.map
    (fun (name, case) ->
      Alcotest.test_case name `Quick (fun () -> with_dir (case c)))
    [
      ("torn tail dropped and healed", torn_tail);
      ("flipped byte refuses to load", flipped_byte);
      ("identity mismatch refuses to load", identity_mismatch);
      ("garbage header refuses to load", garbage_header);
      ("foreign tag refuses to load", foreign_tag);
      ("later duplicate key wins", later_duplicate_wins);
    ]

(* ------------------------------------------------------------------ *)
(* End to end through Rcache: insertions journal, a second cache on the
   same directory starts warm with byte-identical sim bodies. *)

let test_rcache_warm_start () =
  with_dir (fun dir ->
      let c = Rcache.create ~journal_dir:dir () in
      Rcache.add_sim c "k1" "body one\nline two\n";
      Rcache.add_sim c "k2" "body two\n";
      Rcache.add_pass c "p1"
        {
          Rcache.tfunc_text = "func f";
          report_text = "R report";
          loop_distances =
            [ { Pass.header = 3; distance = 64; enabled = true; dist_slot = Some 0 } ];
          adaptive = None;
        };
      Rcache.close_journal c;
      let c2 = Rcache.create ~journal_dir:dir () in
      let js = Rcache.journal_stats c2 in
      Alcotest.(check int) "sim entries replayed" 2 js.Rcache.replayed_sim;
      Alcotest.(check int) "pass entries replayed" 1 js.Rcache.replayed_pass;
      Alcotest.(check (option string)) "sim body byte-identical"
        (Some "body one\nline two\n")
        (Rcache.find_sim c2 "k1");
      (match Rcache.find_pass c2 "p1" with
      | None -> Alcotest.fail "pass entry lost across restart"
      | Some e ->
          Alcotest.(check string) "pass tfunc text survives" "func f"
            e.Rcache.tfunc_text;
          Alcotest.(check int) "loop distance survives" 64
            (List.hd e.Rcache.loop_distances).Pass.distance);
      Rcache.close_journal c2)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_codec_round_trip;
    QCheck_alcotest.to_alcotest prop_decode_never_raises;
    Alcotest.test_case "append/reopen replay round-trip" `Quick
      test_replay_round_trip;
    Alcotest.test_case "whitespace keys rejected" `Quick test_rejects_bad_key;
    Alcotest.test_case "record line pinned" `Quick test_record_line_pinned;
    Alcotest.test_case "hex codec" `Quick test_hex_codec;
    QCheck_alcotest.to_alcotest prop_hex_round_trip;
  ]
  @ damage_cases cache
  @ [
      Alcotest.test_case "rcache warm start replays entries" `Quick
        test_rcache_warm_start;
    ]

(* The same damage matrix against the campaign checkpoint; listed under
   the "checkpoint" suite. *)
let checkpoint_damage = damage_cases checkpoint
