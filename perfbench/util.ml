(* Clocks, order statistics, process gauges and the result line. *)

let now_ns () = Icfg_core.Metrics.now_ns ()
let ms_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e6

(* Time [f] in milliseconds. *)
let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, ms_since t0)

(* Nearest-rank percentile. Failed requests enter the sample as
   [infinity], so a failure counts as missing any latency limit. *)
let percentile p xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median xs = percentile 0.5 xs
let sum xs = List.fold_left ( +. ) 0. xs

let geomean = function
  | [] -> nan
  | xs -> exp (sum (List.map log xs) /. float_of_int (List.length xs))

let pct part whole =
  if whole = 0 then 0. else 100. *. float_of_int part /. float_of_int whole

(* Peak resident set of this process (daemon and clients share it). *)
let peak_rss_mb () =
  let lines =
    In_channel.with_open_text "/proc/self/status" In_channel.input_all
    |> String.split_on_char '\n'
  in
  match List.find_opt (String.starts_with ~prefix:"VmHWM:") lines with
  | None -> nan
  | Some l ->
      let digits = String.concat "" (String.split_on_char ' ' l) in
      let digits = String.sub digits 6 (String.length digits - 6) in
      let kb = String.sub digits 0 (String.index digits 'k') in
      float_of_string kb /. 1024.

type metric = { m_name : string; m_value : float; m_unit : string }

let metric m_name m_unit m_value = { m_name; m_value; m_unit }

(* Full precision: the figures are reported as measured. *)
let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

(* A readable table, then the one-line JSON result that must be the
   last line of standard output. *)
let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun m ->
      Printf.printf "  %-34s %16s %s\n" m.m_name (json_number m.m_value)
        m.m_unit)
    metrics;
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.m_name
          (json_number m.m_value) m.m_unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " fields)
