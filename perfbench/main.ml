(* The repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe selftest

   With --trace 0 it runs the named workload for S seconds and prints
   the end-to-end metrics; with --trace 1 it replays one pass of the
   workload with a span around every layer call and prints the
   per-layer metrics. The last line of standard output is the JSON
   result; the exit code is 1 if any answer was wrong. *)

open Util

let usage () =
  prerr_endline
    "usage: main.exe --workload classify-stream|edit-loop|oneshot-rewrite \
     --seed N --seconds S --trace 0|1\n\
    \       main.exe selftest";
  exit 2

(* Set-ups per timed run; the reported set-up time is their median. The
   traced run does not report set-up time and sets up once. *)
let setup_reps = 3

let run_workload ~workload ~seed ~seconds ~trace =
  let kind =
    match List.assoc_opt workload Workloads.kinds with
    | Some k -> k
    | None -> usage ()
  in
  let env, setup_s =
    Workloads.setup ~reps:(if trace then 1 else setup_reps) kind ~seed
  in
  let attempted, failed, metrics =
    if trace then Ledger.run kind env (Inputs.verdicts (fst env))
    else
      let passes = Workloads.run ~seconds env in
      Workloads.end_to_end (Inputs.verdicts (fst env)) passes ~setup_s
  in
  Printf.printf "%s seed %d: %d requests, %d failed\n" workload seed attempted
    failed;
  print_result ~correct:(failed = 0) ~attempted ~failed metrics;
  if failed > 0 then exit 1

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let args = List.tl (Array.to_list Sys.argv) in
  at_exit Wire.cleanup;
  match args with
  | [ "selftest" ] -> exit (if Selftest.run () then 0 else 1)
  | _ ->
      let rec opts acc = function
        | k :: v :: rest when String.starts_with ~prefix:"--" k ->
            opts ((k, v) :: acc) rest
        | [] -> acc
        | _ -> usage ()
      in
      let o = opts [] args in
      let get k = match List.assoc_opt k o with Some v -> v | None -> usage () in
      let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
      let trace =
        match get "--trace" with "0" -> false | "1" -> true | _ -> usage ()
      in
      let seconds = int "--seconds" in
      if seconds < 1 then usage ();
      run_workload ~workload:(get "--workload") ~seed:(int "--seed")
        ~seconds:(float_of_int seconds) ~trace
