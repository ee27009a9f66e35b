(* The benchmark's side of the daemon socket: socket paths, request
   construction, daemon start-up, base registration and stats scrapes.

   Requests are built from templates that [Client] itself encodes, so
   the benchmark never names a wire field beyond the approach and the
   payload: fields the daemon defaults (such as its pipeline settings)
   keep their client-side defaults and may change without touching this
   file. *)

module Protocol = Icfg_service.Protocol
module Client = Icfg_service.Client
module Server = Icfg_service.Server

(* Sockets live in a run directory under the working directory (the
   benchmark writes nothing outside it) and are named relatively, which
   also keeps them short of the Unix socket path limit. *)
let run_dir = ".bench_run"
let n_sockets = ref 0

let socket_path tag =
  if not (Sys.file_exists run_dir) then Sys.mkdir run_dir 0o755;
  incr n_sockets;
  Filename.concat run_dir
    (Printf.sprintf "%s-%d-%d.sock" tag (Unix.getpid ()) !n_sockets)

let cleanup () = try Sys.rmdir run_dir with Sys_error _ -> ()

(* Accept one connection on a throwaway socket, read the one request
   [send] makes through [Client], answer [Pong], and decode it. *)
let capture send =
  let path = socket_path "template" in
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX path);
  Unix.listen lfd 1;
  let th =
    Thread.create
      (fun () -> Client.with_connection path (fun c -> ignore (send c)))
      ()
  in
  let fd, _ = Unix.accept lfd in
  let frame = Protocol.read_frame fd in
  Protocol.write_frame fd (Protocol.response_to_payload Protocol.Pong);
  Thread.join th;
  Unix.close fd;
  Unix.close lfd;
  Unix.unlink path;
  match Option.map Protocol.request_of_payload frame with
  | Some (Ok r) -> r
  | _ -> failwith "could not capture a request template"

let templates =
  lazy
    (let p = Protocol.Ref "" in
     ( capture (fun c -> Client.classify_payload c ~approach:"" p),
       capture (fun c -> Client.rewrite_payload c ~approach:"" p) ))

let classify ~approach payload =
  match fst (Lazy.force templates) with
  | Protocol.Classify r -> Protocol.Classify { r with approach; payload }
  | _ -> invalid_arg "classify template"

let rewrite ~approach payload =
  match snd (Lazy.force templates) with
  | Protocol.Rewrite r -> Protocol.Rewrite { r with approach; payload }
  | _ -> invalid_arg "rewrite template"

let start ?max_frame () = Server.start ~path:(socket_path "daemon") ?max_frame ()

let register srv bins =
  Client.with_connection (Server.sock_path srv) @@ fun c ->
  List.iter
    (fun b ->
      match Client.register_bytes c b with
      | Ok (Protocol.Registered _) -> ()
      | _ -> failwith "registering a base failed")
    bins

let stats srv =
  Client.with_connection (Server.sock_path srv) @@ fun c ->
  match Client.stats c () with
  | Ok (Protocol.StatsSnapshot { snap; _ }) -> snap
  | _ -> failwith "stats scrape failed"
