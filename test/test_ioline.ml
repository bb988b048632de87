(* The serve daemon's bounded line reader over a real socket pair: lines
   framed across and within reads, the [max_line] boundary, a stream
   that ends mid-line, and silence. *)

module Ioline = Spf_serve.Ioline

let with_pair ?(max_line = 64) ?(idle_s = 2.0) f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f (Ioline.create ~max_line ~idle_s a) b)

let send fd s =
  let n = Unix.write_substring fd s 0 (String.length s) in
  Alcotest.(check int) "whole write" (String.length s) n

let show = function
  | Ioline.Line s -> Printf.sprintf "Line %S" s
  | Ioline.Eof -> "Eof"
  | Ioline.Timeout -> "Timeout"
  | Ioline.Overflow -> "Overflow"

let expect msg want rd =
  Alcotest.(check string) msg (show want) (show (Ioline.read_line rd))

let test_many_lines_one_read () =
  with_pair (fun rd peer ->
      send peer "a\nbb\n\nccc\nd";
      expect "first" (Ioline.Line "a") rd;
      expect "second" (Ioline.Line "bb") rd;
      expect "empty line" (Ioline.Line "") rd;
      expect "fourth" (Ioline.Line "ccc") rd;
      Alcotest.(check int) "partial line stays buffered" 1
        (Ioline.buffered_bytes rd);
      send peer "\n";
      expect "completed by the next read" (Ioline.Line "d") rd;
      Alcotest.(check int) "nothing left" 0 (Ioline.buffered_bytes rd))

let test_line_split_across_reads () =
  with_pair (fun rd peer ->
      (* The second half arrives after the reader has taken the first. *)
      send peer "first\nhal";
      let writer =
        Thread.create
          (fun () ->
            Thread.delay 0.05;
            send peer "f and half\nnext\n")
          ()
      in
      expect "line before the split" (Ioline.Line "first") rd;
      expect "joined across reads" (Ioline.Line "half and half") rd;
      expect "line after the split" (Ioline.Line "next") rd;
      Thread.join writer);
  (* A line longer than one read's worth of buffer. *)
  with_pair ~max_line:65536 (fun rd peer ->
      let long = String.init 20_000 (fun i -> Char.chr (97 + (i mod 26))) in
      send peer ("x\n" ^ long ^ "\ny\n");
      expect "short line" (Ioline.Line "x") rd;
      expect "long line intact" (Ioline.Line long) rd;
      expect "line after it" (Ioline.Line "y") rd)

let test_max_line_boundary () =
  let at = String.make 16 'x' and past = String.make 17 'x' in
  with_pair ~max_line:16 (fun rd peer ->
      send peer (at ^ "\n");
      expect "exactly max_line bytes" (Ioline.Line at) rd);
  with_pair ~max_line:16 (fun rd peer ->
      send peer (past ^ "\n");
      expect "one byte past, terminated" Ioline.Overflow rd);
  with_pair ~max_line:16 ~idle_s:5.0 (fun rd peer ->
      (* No newline needed: the partial line is already too long. *)
      send peer past;
      expect "one byte past, unterminated" Ioline.Overflow rd)

let test_unterminated_then_close () =
  with_pair (fun rd peer ->
      send peer "whole\npartial";
      Unix.shutdown peer Unix.SHUTDOWN_SEND;
      expect "complete line first" (Ioline.Line "whole") rd;
      expect "partial line at close" Ioline.Eof rd)

let test_silence_times_out () =
  with_pair ~idle_s:0.05 (fun rd _peer ->
      expect "no bytes within idle_s" Ioline.Timeout rd)

let suite =
  [
    Alcotest.test_case "many lines in one read" `Quick test_many_lines_one_read;
    Alcotest.test_case "line split across reads" `Quick
      test_line_split_across_reads;
    Alcotest.test_case "max_line boundary" `Quick test_max_line_boundary;
    Alcotest.test_case "unterminated line then close" `Quick
      test_unterminated_then_close;
    Alcotest.test_case "silence times out" `Quick test_silence_times_out;
  ]
