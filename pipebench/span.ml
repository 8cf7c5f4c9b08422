(* In-memory span recorder for the traced run.

   Every call the benchmark makes into a layer's public functions is
   wrapped in [record name f].  With tracing off this is a plain call;
   with tracing on it records the span (name, start, end, parent) in
   memory.  Nothing is written until [write] at the end of the run, so
   the recorder never touches the disk inside a timed region. *)

type t = {
  id : int;
  name : string;
  parent : int;  (* -1 for a root span *)
  start_ns : int;
  mutable stop_ns : int;
}

let enabled = ref false
let recorded : t list ref = ref []
let open_ids : int list ref = ref []
let next_id = ref 0

let record name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_ids with p :: _ -> p | [] -> -1 in
    let span = { id; name; parent; start_ns = Obs.now_ns (); stop_ns = 0 } in
    open_ids := id :: !open_ids;
    let finish () =
      span.stop_ns <- Obs.now_ns ();
      open_ids := List.tl !open_ids;
      recorded := span :: !recorded
    in
    match f () with
    | v -> finish (); v
    | exception e -> finish (); raise e
  end

let duration s = s.stop_ns - s.start_ns

(* Durations (ns) of every span with this name, in recording order. *)
let durations name =
  List.fold_left
    (fun acc s -> if String.equal s.name name then duration s :: acc else acc)
    [] !recorded

(* Per-name call count, total time and self time: a span's self time is
   its duration minus the time its direct children cover (children of
   one span never overlap, the run being single-threaded). *)
let layers () =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (duration s
          + Option.value ~default:0 (Hashtbl.find_opt children s.parent)))
    !recorded;
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let calls, total, self =
        Option.value ~default:(0, 0, 0) (Hashtbl.find_opt by_name s.name)
      in
      let covered = Option.value ~default:0 (Hashtbl.find_opt children s.id) in
      Hashtbl.replace by_name s.name
        (calls + 1, total + duration s, self + duration s - covered))
    !recorded;
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) by_name []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* [extra] is further JSON members, written first. *)
let write ~extra path =
  let oc = open_out path in
  Printf.fprintf oc "{%s,\n\"layers\": {" extra;
  List.iteri
    (fun i (name, (calls, total, self)) ->
      Printf.fprintf oc "%s\n  %S: {\"calls\": %d, \"total_ns\": %d, \"self_ns\": %d}"
        (if i = 0 then "" else ",") name calls total self)
    (layers ());
  output_string oc "\n},\n\"spans\": [";
  List.iteri
    (fun i s ->
      Printf.fprintf oc "%s\n  {\"id\": %d, \"name\": %S, \"parent\": %d, \"start_ns\": %d, \"end_ns\": %d}"
        (if i = 0 then "" else ",") s.id s.name s.parent s.start_ns s.stop_ns)
    (List.rev !recorded);
  output_string oc "\n]}\n";
  close_out oc
