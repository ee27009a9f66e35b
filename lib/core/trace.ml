let now () = Monotonic_clock.now ()

type node = {
  n_name : string;
  n_start : int64;
  mutable n_stop : int64;
  mutable n_children : node list; (* reversed: most recently finished first *)
}

type t = {
  mutable roots : node list; (* reversed *)
  counters : (string, int) Hashtbl.t;
  m : Mutex.t;
}

let create () =
  { roots = []; counters = Hashtbl.create 64; m = Mutex.create () }

(* The ambient trace, per domain. Used to be a single process-global
   [Atomic.t], which meant two concurrent requests in one process (the
   [icfg serve] daemon) would bleed counters into whichever trace was
   installed last. Per-domain storage gives each request its own ambient
   as long as requests run on distinct domains. *)
let ambient : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let get_ambient () = Domain.DLS.get ambient
let set_ambient v = Domain.DLS.set ambient v

(* Innermost-first stack of open spans, per domain: nesting is a property
   of one domain's call stack, while the finished-span tree is shared. *)
let open_spans : node list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let with_current t f =
  let prev = get_ambient () in
  set_ambient (Some t);
  Fun.protect ~finally:(fun () -> set_ambient prev) f

let active () = get_ambient () <> None

let attach t ~parent node =
  Mutex.lock t.m;
  (match parent with
  | Some p -> p.n_children <- node :: p.n_children
  | None -> t.roots <- node :: t.roots);
  Mutex.unlock t.m

let span_in t name f =
  let stack = Domain.DLS.get open_spans in
  let parent = match !stack with n :: _ -> Some n | [] -> None in
  let node =
    { n_name = name; n_start = now (); n_stop = 0L; n_children = [] }
  in
  stack := node :: !stack;
  Fun.protect
    ~finally:(fun () ->
      (match !stack with _ :: rest -> stack := rest | [] -> ());
      node.n_stop <- now ();
      attach t ~parent node)
    f

let span name f =
  match get_ambient () with None -> f () | Some t -> span_in t name f

let add name n =
  match get_ambient () with
  | None -> ()
  | Some t ->
      Mutex.lock t.m;
      let prev = Option.value ~default:0 (Hashtbl.find_opt t.counters name) in
      Hashtbl.replace t.counters name (prev + n);
      Mutex.unlock t.m

let incr name = add name 1

let counters t =
  Mutex.lock t.m;
  let l = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.counters [] in
  Mutex.unlock t.m;
  List.sort compare l

let find_counter t name =
  Mutex.lock t.m;
  let v = Hashtbl.find_opt t.counters name in
  Mutex.unlock t.m;
  v

let ns_of n = Int64.to_int (Int64.sub n.n_stop n.n_start)

type row = { r_path : string; r_count : int; r_ns : int }

let rows t =
  Mutex.lock t.m;
  let roots = List.rev t.roots in
  Mutex.unlock t.m;
  let tbl = Hashtbl.create 64 in
  let order = ref [] in
  let rec go prefix n =
    let path = if prefix = "" then n.n_name else prefix ^ "/" ^ n.n_name in
    (match Hashtbl.find_opt tbl path with
    | None ->
        Hashtbl.add tbl path (ref 1, ref (ns_of n));
        order := path :: !order
    | Some (c, ns) ->
        Stdlib.incr c;
        ns := !ns + ns_of n);
    List.iter (go path) (List.rev n.n_children)
  in
  List.iter (go "") roots;
  List.rev_map
    (fun path ->
      let c, ns = Hashtbl.find tbl path in
      { r_path = path; r_count = !c; r_ns = !ns })
    !order

(* Hand-rolled JSON, same policy as bench/main.ml: no JSON dependency. *)
let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json t =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"schema\": \"icfg-trace/1\",\n  \"counters\": {";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "\n    \"%s\": %d" (json_escape k) v)
    (counters t);
  Buffer.add_string b "\n  },\n  \"spans\": [";
  let rec node buf n =
    Printf.bprintf buf "{\"name\": \"%s\", \"ns\": %d" (json_escape n.n_name)
      (ns_of n);
    (match List.rev n.n_children with
    | [] -> ()
    | children ->
        Buffer.add_string buf ", \"children\": [";
        List.iteri
          (fun i c ->
            if i > 0 then Buffer.add_string buf ", ";
            node buf c)
          children;
        Buffer.add_char buf ']');
    Buffer.add_char buf '}'
  in
  Mutex.lock t.m;
  let roots = List.rev t.roots in
  Mutex.unlock t.m;
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "\n    ";
      node b r)
    roots;
  Buffer.add_string b "\n  ]\n}\n";
  Buffer.contents b

(* Write-in-finally: the trace file must land on disk even when [f] raises
   (a failed rewrite is exactly when the trace is wanted), so the JSON dump
   runs under [Fun.protect] — after the ambient trace is uninstalled, so
   every span recorded before the raise is already attached. *)
let with_file path f =
  let t = create () in
  Fun.protect
    ~finally:(fun () ->
      let oc = open_out path in
      output_string oc (to_json t);
      close_out oc)
    (fun () -> with_current t f)

let add_vm ~prefix (r : Icfg_runtime.Vm.result) =
  if active () then begin
    add (prefix ^ "/cycles") r.cycles;
    add (prefix ^ "/steps") r.steps;
    add (prefix ^ "/traps") r.trap_hits;
    add (prefix ^ "/ra-translations") r.ra_translations;
    add (prefix ^ "/unwind-steps") r.unwind_steps;
    add (prefix ^ "/icache-misses") r.icache_misses;
    add (prefix ^ "/icache-hits") (r.icache_accesses - r.icache_misses);
    List.iter
      (fun (bucket, cycles) -> add (prefix ^ "/cycles:" ^ bucket) cycles)
      r.cycle_buckets
  end

let parse_probe () =
  {
    Icfg_analysis.Parse.pspan = (fun name f -> span name f);
    pcount = add;
  }
