(* The cache journal behind `spf serve --cache-journal`: the pass-entry
   codec round-trips arbitrary entries, an append/reopen cycle replays
   exactly what was written, a torn tail (the only damage a crash can
   inflict, by construction) is dropped and healed, and every other kind
   of damage — flipped payload bytes, a rewritten identity line — is
   refused loudly rather than half-loaded.  See docs/ROBUSTNESS.md. *)

module Rcache = Spf_serve.Rcache
module Cjournal = Spf_serve.Cjournal
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
(* Journal: append / reopen replay round-trip. *)

let sample_records =
  [
    Cjournal.Sim ("sim:a", "R body\nS line\nV ok\n");
    Cjournal.Pass ("pass:b", "arbitrary \x00 payload\nbytes");
    Cjournal.Sim ("sim:c", "");
  ]

let test_replay_round_trip () =
  with_dir (fun dir ->
      let j = Cjournal.open_ ~dir in
      Alcotest.(check int) "fresh journal replays nothing" 0
        (List.length (Cjournal.replayed j));
      List.iter (Cjournal.append j) sample_records;
      Cjournal.close j;
      let j2 = Cjournal.open_ ~dir in
      Alcotest.(check bool) "no tail recovery" false (Cjournal.truncated j2);
      Alcotest.(check bool) "records replayed verbatim, oldest first" true
        (Cjournal.replayed j2 = sample_records);
      Alcotest.(check int) "pass count" 1 (Cjournal.replayed_pass j2);
      Alcotest.(check int) "sim count" 2 (Cjournal.replayed_sim j2);
      Cjournal.close j2)

let test_rejects_bad_key () =
  with_dir (fun dir ->
      let j = Cjournal.open_ ~dir in
      Fun.protect
        ~finally:(fun () -> Cjournal.close j)
        (fun () ->
          List.iter
            (fun key ->
              match Cjournal.append j (Cjournal.Sim (key, "x")) with
              | () -> Alcotest.fail ("accepted bad key " ^ String.escaped key)
              | exception Invalid_argument _ -> ())
            [ ""; "a b"; "a\nb" ]))

(* ------------------------------------------------------------------ *)
(* The on-disk record format is pinned byte for byte: journals written
   by earlier builds must keep replaying, and the same request sequence
   must keep writing the same file.  The expected line below is the
   record the original per-byte [Printf "%02x"] encoder wrote for a
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
      let j = Cjournal.open_ ~dir in
      Cjournal.append j (Cjournal.Sim ("sim:pin", all_bytes));
      Cjournal.close j;
      let lines =
        String.split_on_char '\n' (read_file (Filename.concat dir "cache-journal"))
      in
      Alcotest.(check string) "record line byte-identical"
        ("S 4379a331c1eda3b355dac03d8ff6e9bb sim:pin " ^ all_bytes_hex)
        (List.nth lines 2);
      Alcotest.(check int) "one record, newline-terminated" 4
        (List.length lines))

let test_hex_codec () =
  Alcotest.(check string) "to_hex is lowercase, two digits a byte"
    all_bytes_hex (Cjournal.to_hex all_bytes);
  Alcotest.(check (option string)) "of_hex inverts to_hex" (Some all_bytes)
    (Cjournal.of_hex all_bytes_hex);
  Alcotest.(check (option string)) "of_hex accepts upper case"
    (Some all_bytes)
    (Cjournal.of_hex (String.uppercase_ascii all_bytes_hex));
  Alcotest.(check (option string)) "empty" (Some "") (Cjournal.of_hex "");
  List.iter
    (fun bad ->
      Alcotest.(check (option string))
        ("rejects " ^ String.escaped bad)
        None (Cjournal.of_hex bad))
    [ "a"; "abc"; "zz"; "0g"; "_1"; "1_"; " 1"; "0x"; "+1"; "-1"; "\xff0" ]

let prop_hex_round_trip =
  QCheck.Test.make ~name:"hex codec round-trips" ~count:300
    QCheck.(string_gen QCheck.Gen.char)
    (fun s -> Cjournal.of_hex (Cjournal.to_hex s) = Some s)

(* ------------------------------------------------------------------ *)
(* Torn tail: strip the trailing newline plus a few bytes — exactly the
   damage a mid-append SIGKILL can cause.  The journal must open, drop
   only the torn record, report the recovery, and leave the file whole
   (compacted) so the next open is clean. *)

let test_truncated_tail_recovered () =
  with_dir (fun dir ->
      let j = Cjournal.open_ ~dir in
      List.iter (Cjournal.append j) sample_records;
      Cjournal.close j;
      let path = Filename.concat dir "cache-journal" in
      let img = read_file path in
      write_file path (String.sub img 0 (String.length img - 5));
      let j2 = Cjournal.open_ ~dir in
      Alcotest.(check bool) "tail recovery reported" true
        (Cjournal.truncated j2);
      Alcotest.(check bool) "only the torn record dropped" true
        (Cjournal.replayed j2
        = [ List.nth sample_records 0; List.nth sample_records 1 ]);
      Alcotest.(check int) "healed by an immediate compaction" 1
        (Cjournal.compactions j2);
      Cjournal.close j2;
      (* The compaction rewrote a whole file: a third open is clean. *)
      let j3 = Cjournal.open_ ~dir in
      Alcotest.(check bool) "clean after heal" false (Cjournal.truncated j3);
      Alcotest.(check int) "two records survive" 2
        (List.length (Cjournal.replayed j3));
      Cjournal.close j3)

(* ------------------------------------------------------------------ *)
(* Anything but the torn tail is corruption and must refuse to load. *)

let expect_refusal name dir =
  match Cjournal.open_ ~dir with
  | j ->
      Cjournal.close j;
      Alcotest.fail (name ^ ": corrupt journal loaded")
  | exception Failure msg ->
      Alcotest.(check bool) (name ^ ": error tells the operator what to do")
        true
        (let sub = "delete it" in
         let n = String.length sub in
         let rec go i =
           i + n <= String.length msg
           && (String.sub msg i n = sub || go (i + 1))
         in
         go 0)

let test_checksum_corruption_rejected () =
  with_dir (fun dir ->
      let j = Cjournal.open_ ~dir in
      List.iter (Cjournal.append j) sample_records;
      Cjournal.close j;
      let path = Filename.concat dir "cache-journal" in
      let img = Bytes.of_string (read_file path) in
      (* Flip one payload byte of the *first* record (not the tail, so
         torn-tail tolerance cannot excuse it). *)
      let line_start =
        let i = String.index_from (Bytes.to_string img) 0 '\n' in
        String.index_from (Bytes.to_string img) (i + 1) '\n' + 1
      in
      let line_end = Bytes.index_from img line_start '\n' in
      let pos = line_end - 1 in
      Bytes.set img pos (if Bytes.get img pos = '0' then '1' else '0');
      write_file path (Bytes.to_string img);
      expect_refusal "flipped byte" dir)

let test_identity_mismatch_rejected () =
  with_dir (fun dir ->
      let j = Cjournal.open_ ~dir in
      List.iter (Cjournal.append j) sample_records;
      Cjournal.close j;
      let path = Filename.concat dir "cache-journal" in
      let img = read_file path in
      let lines = String.split_on_char '\n' img in
      let forged =
        List.mapi
          (fun i l ->
            if i = 1 then "identity " ^ String.make 32 'f' else l)
          lines
      in
      write_file path (String.concat "\n" forged);
      expect_refusal "stale identity" dir)

let test_garbage_header_rejected () =
  with_dir (fun dir ->
      let path = Filename.concat dir "cache-journal" in
      write_file path "not a journal\nat all\n";
      expect_refusal "garbage header" dir)

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
    Alcotest.test_case "torn tail dropped and healed" `Quick
      test_truncated_tail_recovered;
    Alcotest.test_case "flipped byte refuses to load" `Quick
      test_checksum_corruption_rejected;
    Alcotest.test_case "identity mismatch refuses to load" `Quick
      test_identity_mismatch_rejected;
    Alcotest.test_case "garbage header refuses to load" `Quick
      test_garbage_header_rejected;
    Alcotest.test_case "rcache warm start replays entries" `Quick
      test_rcache_warm_start;
  ]
