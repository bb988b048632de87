(* Bounded, deadline-aware line reading for the serve daemon.

   The stdlib [in_channel] the first serve cut used has two failure
   modes a hostile client can drive: [input_line] blocks forever on a
   peer that stops sending mid-line (slowloris), and it happily
   accumulates an unbounded line from a peer that never sends the
   newline.  This reader works directly on the fd: every refill waits at
   most [idle_s] for bytes (via [select]), and a line that exceeds
   [max_line] bytes is classified [Overflow] instead of growing the
   buffer — the handler turns both into a classified reply and closes
   the connection.

   Received bytes live in one buffer, consumed by advancing an offset:
   returning a line copies that line and nothing else, so a request
   whose lines arrive in one read costs one copy of its bytes rather
   than a copy of the unread remainder per line.  The unread tail moves
   to the front only when a refill needs the room.

   Not thread-safe; one reader per connection handler thread. *)

type t = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable start : int;  (* first unconsumed byte *)
  mutable stop : int;  (* end of the received bytes *)
  mutable scanned : int;  (* [start, scanned) is known to hold no newline *)
  max_line : int;
  idle_s : float;
}

type line =
  | Line of string
  | Eof  (* peer closed (or reset) the connection *)
  | Timeout  (* no bytes for [idle_s] seconds mid-read *)
  | Overflow  (* line exceeds [max_line] bytes; stream is unframeable *)

(* Bytes asked of each read. *)
let chunk = 8192

let create ?(max_line = 1 lsl 16) ~idle_s fd =
  {
    fd;
    buf = Bytes.create chunk;
    start = 0;
    stop = 0;
    scanned = 0;
    max_line;
    idle_s;
  }

let buffered_bytes t = t.stop - t.start

(* The first newline in [from, stop), or -1. *)
let newline t ~from =
  let i = ref from in
  while !i < t.stop && Bytes.unsafe_get t.buf !i <> '\n' do
    incr i
  done;
  if !i < t.stop then !i else -1

(* Make room for a read of [chunk] bytes after [stop]: move the unread
   tail to the front, growing the buffer when the tail itself is too
   long.  Before a refill the tail is at most [max_line] bytes (a longer
   one is [Overflow]), so the buffer never exceeds [max_line + 1 +
   chunk]. *)
let make_room t =
  if Bytes.length t.buf - t.stop < chunk then begin
    let live = t.stop - t.start in
    let dst =
      if live + chunk <= Bytes.length t.buf then t.buf
      else
        Bytes.create
          (max (live + chunk)
             (min (2 * Bytes.length t.buf) (t.max_line + 1 + chunk)))
    in
    Bytes.blit t.buf t.start dst 0 live;
    t.buf <- dst;
    t.scanned <- t.scanned - t.start;
    t.start <- 0;
    t.stop <- live
  end

let rec read_line t =
  match newline t ~from:(max t.start t.scanned) with
  | -1 ->
      t.scanned <- t.stop;
      if t.stop - t.start > t.max_line then Overflow else refill t
  | i ->
      let len = i - t.start in
      let line = Bytes.sub_string t.buf t.start len in
      t.start <- i + 1;
      if len > t.max_line then Overflow else Line line

and refill t =
  match Unix.select [ t.fd ] [] [] t.idle_s with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> refill t
  | exception Unix.Unix_error (Unix.EBADF, _, _) ->
      (* The drain watchdog force-shut the socket under us. *)
      Eof
  | [], _, _ -> Timeout
  | _ -> (
      make_room t;
      match Unix.read t.fd t.buf t.stop (Bytes.length t.buf - t.stop) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> refill t
      | exception
          Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF), _, _)
        ->
          Eof
      | 0 ->
          (* A partial unterminated line at EOF is a vanished client,
             not a request. *)
          Eof
      | n ->
          t.stop <- t.stop + n;
          read_line t)
