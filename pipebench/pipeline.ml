(* The pipeline benchmark: one workload per invocation, run through the
   whole tuning pipeline of the paper (§3.3, §4.3, §6.6).

     setup   — Barton store and workload from the seed, saturation and
               DRed set-up (several times; the median is [setup_s]);
     advise  — Core.Selector.select under post-reformulation, then
               Engine.Materialize.materialize_views;
     answer  — the workload answered through the views (Engine.Executor),
               on the saturated store (Query.Evaluation) and by
               reformulating each query and evaluating the union on the
               explicit store;
     update  — a seeded stream of inserts and deletes applied to the
               views (Engine.Maintenance) and to the saturated store
               (Rdf.Incremental).

   Every pass and every update is checked against computations made
   apart from the timed code (Evaluation.Reference, re-materialization,
   Entailment.saturated_copy, Core.Invariant), outside the timed
   regions.  The last line of stdout is one JSON object with the
   operation counts and the metrics: the end-to-end metrics with
   [--trace 0], the per-layer metrics with [--trace 1]. *)

let schema = Workload.Barton.schema ()
let class_term i = Rdf.Term.Uri (Printf.sprintf "barton:Class%d" i)
let property_term i = Rdf.Term.Uri (Printf.sprintf "barton:prop%d" i)
let reasoning = Core.Selector.Post_reformulation schema

(* the sizes of Workload.Barton's schema *)
let n_properties = 61
let n_classes = 39

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)

(* Query building blocks.  Workload constants are schema terms only
   (classes and properties), never entities, so every seed's store
   answers every query. *)
let var = Query.Qterm.var
let typed x c = Query.Atom.make (var x) (Query.Qterm.cst Rdf.Vocabulary.rdf_type) (Query.Qterm.cst c)
let link x p y = Query.Atom.make (var x) (Query.Qterm.cst p) (var y)
let query name head body = Query.Cq.make ~name ~head:(List.map var head) ~body
let cls = class_term
let prop = property_term

(* The seed picks which leaf classes and which sub-properties fill a
   workload's slots.  The Barton generator draws leaf types and
   sub-property links uniformly, so every choice has the same data
   statistics as long as no query names an ancestor of the choice: the
   leaves are those outside the subtrees of Class5 and Class6, the
   sub-properties those of prop2..prop4, and the queries name no other
   leaf or sub-property and no super-property but prop0 and prop1.  The
   mid-hierarchy constants that drive reformulation stay fixed. *)
type slots = { leaf : int -> Rdf.Term.t; sub : int -> Rdf.Term.t }

let shuffle rng l =
  List.map (fun x -> (Random.State.bits rng, x)) l
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

let slots_of ~seed =
  let rng = Random.State.make [| seed; 0x51075 |] in
  let leaves = Array.of_list (shuffle rng [ 19; 20; 21; 22; 31; 32; 33; 34; 35; 36; 37; 38 ]) in
  let subs = Array.of_list (shuffle rng [ 47; 52; 57; 48; 53; 58; 49; 54; 59 ]) in
  { leaf = (fun i -> cls leaves.(i)); sub = (fun i -> prop subs.(i)) }

type config = {
  entities : int;  (* Barton entities; about 7 explicit triples each *)
  queries : slots -> Query.Cq.t list;
  state_cap : int;  (* the search stops here, never at a time budget *)
  passes : int;  (* pass iterations (every route) per round *)
  interleave : bool;  (* instead, one pass after each update, routes in turn *)
  fault_items : int;  (* stream items that hit the UCQ-maintenance fault *)
}

(* A run repeats whole rounds until --seconds have passed: one advise,
   [passes] iterations over the workload by every route, then one round
   of the update stream.  The three workloads
   weight these differently, so that each layer carries most of the work
   in one of them. *)
let config_of = function
  | "advise" ->
    (* small store, star queries sharing most of their atoms: the search
       and the cost model carry the run *)
    Some
      {
        entities = 5000;
        queries =
          (fun s ->
            [
              query "q1" [ "X"; "Y" ] [ link "X" (prop 1) "V"; link "X" (s.sub 0) "Y"; link "X" (prop 0) "Z" ];
              query "q2" [ "X"; "Z" ] [ link "X" (prop 1) "V"; link "X" (s.sub 0) "Y"; link "X" (prop 0) "Z" ];
              query "q3" [ "X"; "Y" ] [ link "X" (prop 1) "V"; link "X" (s.sub 0) "Y"; link "X" (s.sub 1) "W" ];
              query "q4" [ "X"; "W" ] [ typed "X" (cls 6); link "X" (s.sub 1) "W"; link "X" (prop 0) "Z" ];
            ]);
        state_cap = 10_000; passes = 20; interleave = false;
        fault_items = 0;
      }
  | "answer" ->
    (* large store, cheap search, many passes over the workload *)
    Some
      {
        entities = 7000;
        queries =
          (fun s ->
            [
              query "a1" [ "X"; "Y" ] [ typed "X" (cls 5); link "X" (prop 0) "Y" ];
              query "a2" [ "X"; "Y" ] [ typed "X" (cls 6); link "X" (prop 1) "Y" ];
              query "a3" [ "X"; "Y"; "Z" ] [ typed "X" (s.leaf 0); link "X" (s.sub 0) "Y"; link "X" (prop 1) "Z" ];
              query "a4" [ "X"; "Y" ] [ typed "X" (cls 11); link "X" (s.sub 1) "Y" ];
              query "a5" [ "X" ] [ typed "X" (cls 12); link "X" (prop 0) "Y" ];
              query "a6" [ "X"; "Y" ] [ link "X" (prop 1) "Y"; link "X" (s.sub 2) "Z" ];
              query "a7" [ "X"; "Z" ] [ typed "X" (s.leaf 1); link "X" (prop 0) "Z" ];
              query "a8" [ "X"; "Y" ] [ typed "X" (cls 5); link "X" (s.sub 3) "Y" ];
            ]);
        state_cap = 50; passes = 30; interleave = false;
        fault_items = 0;
      }
  | "update" ->
    (* medium store, one update between consecutive passes; the stream
       also deletes typings of [qclass] answers, which hit the fault *)
    Some
      {
        entities = 1500;
        queries =
          (fun s ->
            [
              query "u1" [ "X"; "Y" ] [ typed "X" (cls 6); link "X" (prop 1) "Y" ];
              query "u2" [ "X"; "Y" ] [ typed "X" (s.leaf 0); link "X" (s.sub 0) "Y" ];
              query "u3" [ "X"; "Y" ] [ link "X" (prop 0) "Y"; link "X" (s.sub 1) "Z" ];
              query "qclass" [ "X" ] [ typed "X" (cls 5) ];
            ]);
        state_cap = 500; passes = 0; interleave = true;
        fault_items = 10;
      }
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Timing and summaries                                                 *)

let now = Obs.now_ns

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () - t0)

let quantile q samples =
  match List.sort compare samples with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let pos = q *. float_of_int (Array.length a - 1) in
    let lo = int_of_float (Float.floor pos) in
    let hi = min (Array.length a - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    ((1. -. frac) *. float_of_int a.(lo)) +. (frac *. float_of_int a.(hi))

let median = quantile 0.5

(* ------------------------------------------------------------------ *)
(* Checks against computations made apart from the timed code           *)

let failures = ref []
let check ok what = if not ok then failures := what :: !failures

let same_store a b =
  Rdf.Store.size a = Rdf.Store.size b
  && Rdf.Store.fold_all a
       (fun (s, p, o) ok ->
         ok
         &&
         (* saturation types literals too, so compare codes, not triples *)
         let code k = Rdf.Store.find_term b (Rdf.Store.decode_term a k) in
         match (code s, code p, code o) with
         | Some s', Some p', Some o' -> Rdf.Store.mem_encoded b (s', p', o')
         | _ -> false)
       true

(* ------------------------------------------------------------------ *)
(* Set-up                                                               *)

type setup = {
  store : Rdf.Store.t;  (* explicit triples; views are maintained on it *)
  dred : Rdf.Incremental.t;  (* its saturation, maintained by DRed *)
  workload : Query.Cq.t list;
}

let build_setup cfg ~seed =
  Span.record "setup" @@ fun () ->
  let store =
    Span.record "Workload.Barton.store" (fun () ->
        Workload.Barton.store ~n_entities:cfg.entities ~seed ())
  in
  let workload = cfg.queries (slots_of ~seed) in
  let dred =
    Span.record "Rdf.Incremental.create" (fun () ->
        Rdf.Incremental.create schema (Rdf.Store.copy store))
  in
  { store; dred; workload }

(* ------------------------------------------------------------------ *)
(* Advise                                                               *)

type advice = {
  best_cost : float;
  initial_cost : float;
  created : int;
  search_s : float;
  best : Core.State.t;
  recommended : Query.Ucq.t list;
  rewritings : (string * Core.Rewriting.t) list;
  env : Engine.Materialize.env;
}

let search_options cfg =
  {
    Core.Search.default_options with
    time_budget = None;
    max_states = Some cfg.state_cap;
  }

(* Untraced mode: the program's own entry points. *)
let advise_whole cfg st =
  let r =
    Core.Selector.select ~jobs:1 ~store:st.store ~reasoning
      ~options:(search_options cfg) st.workload
  in
  let env = Engine.Materialize.materialize_views st.store r.Core.Selector.recommended in
  let rep = r.Core.Selector.report in
  {
    best_cost = rep.Core.Search.best_cost;
    initial_cost = rep.Core.Search.initial_cost;
    created = rep.Core.Search.created;
    search_s = rep.Core.Search.elapsed;
    best = rep.Core.Search.best;
    recommended = r.Core.Selector.recommended;
    rewritings = r.Core.Selector.rewritings;
    env;
  }

let atoms_counted = ref 0

(* Traced mode: Selector.select's public steps one by one, each in a
   span, doing the same work: the statistics are counted lazily, as the
   search asks for them. *)
let advise_steps cfg st =
  let options = search_options cfg in
  let stats =
    Span.record "Stats.Statistics.create" (fun () ->
        Stats.Statistics.create ~mode:(Stats.Statistics.Reformulated schema) st.store)
  in
  let estimator =
    Span.record "Core.Cost.create" (fun () ->
        Core.Cost.create stats options.Core.Search.weights)
  in
  let initial = Core.Selector.initial_state reasoning st.workload in
  let rep =
    Span.record "Core.Search.run_from" (fun () ->
        Core.Search.run_from estimator options initial)
  in
  atoms_counted := Stats.Statistics.cache_size stats;
  let best = rep.Core.Search.best in
  let recommended =
    Span.record "Query.Reformulation.views" (fun () ->
        List.map
          (fun v ->
            Query.Ucq.dedup
              (Query.Reformulation.reformulate v.Core.View.cq schema))
          best.Core.State.views)
  in
  let rewritings =
    Span.record "Core.Simplify.state_rewritings" (fun () ->
        (fst (Core.Simplify.state_rewritings best)).Core.State.rewritings)
  in
  let env =
    Span.record "Engine.Materialize.materialize_views" (fun () ->
        Engine.Materialize.materialize_views st.store recommended)
  in
  {
    best_cost = rep.Core.Search.best_cost;
    initial_cost = rep.Core.Search.initial_cost;
    created = rep.Core.Search.created;
    search_s = rep.Core.Search.elapsed;
    best;
    recommended;
    rewritings;
    env;
  }

let check_advice st a =
  let reference = Core.Invariant.reference_of_workload st.workload in
  check (Core.Invariant.check reference a.best = []) "advice: Core.Invariant.check";
  check (a.best_cost <= a.initial_cost) "advice: best_cost > initial_cost";
  check
    (List.for_all (fun (q : Query.Cq.t) -> List.mem_assoc q.Query.Cq.name a.rewritings) st.workload)
    "advice: a query has no rewriting"

(* ------------------------------------------------------------------ *)
(* Answer: three routes                                                 *)

type route = Views | Saturated | Reformulated

let route_name = function
  | Views -> "views"
  | Saturated -> "saturated"
  | Reformulated -> "reformulated"

let saturated st = Rdf.Incremental.store st.dred

(* What one pass returns per query, still encoded against the route's
   store: relations (views) or rows (store routes). *)
type answers = Relations of Engine.Relation.t list | Rows of int array list list

(* One pass over the workload by one route, timed. *)
let run_pass st a route =
  match route with
  | Views ->
    let rewritings =
      List.map (fun (q : Query.Cq.t) -> List.assoc q.Query.Cq.name a.rewritings) st.workload
    in
    let rels, ns =
      timed (fun () ->
          Span.record "pass.views" (fun () ->
              List.map
                (fun rw ->
                  Span.record "Engine.Executor.execute" (fun () ->
                      Engine.Executor.execute st.store a.env rw))
                rewritings))
    in
    (Relations rels, ns)
  | Saturated ->
    let sat = saturated st in
    Query.Mqo.reset ();
    let rows, ns =
      timed (fun () ->
          Span.record "pass.saturated" (fun () ->
              List.map
                (fun q ->
                  Span.record "Query.Evaluation.eval_cq_codes" (fun () ->
                      Query.Evaluation.eval_cq_codes sat q))
                st.workload))
    in
    (Rows rows, ns)
  | Reformulated ->
    Query.Mqo.reset ();
    let rows, ns =
      timed (fun () ->
          Span.record "pass.reformulated" (fun () ->
              List.map
                (fun q ->
                  let u =
                    Span.record "Query.Reformulation.reformulate" (fun () ->
                        Query.Reformulation.reformulate q schema)
                  in
                  Span.record "Query.Evaluation.eval_ucq_codes" (fun () ->
                      Query.Evaluation.eval_ucq_codes st.store u))
                st.workload))
    in
    (Rows rows, ns)

(* The answers Evaluation.Reference gives on the saturated store,
   encoded once against each store's dictionary so that a pass is
   checked without decoding (a term a store lacks encodes as -1 and
   never matches). *)
type expected = { on_store : Query.Rowset.t list; on_sat : Query.Rowset.t list }

let reference_answers st =
  let sat = saturated st in
  let answers =
    List.map (fun q -> Query.Evaluation.Reference.eval_cq sat q) st.workload
  in
  List.iteri
    (fun i rows ->
      check (rows <> []) (Printf.sprintf "reference: query %d has no answer" (i + 1)))
    answers;
  let encode store rows =
    let set = Query.Rowset.create (List.length rows) in
    List.iter
      (fun r ->
        ignore
          (Query.Rowset.add set
             (Array.map
                (fun t -> Option.value ~default:(-1) (Rdf.Store.find_term store t))
                r)))
      rows;
    set
  in
  { on_store = List.map (encode st.store) answers; on_sat = List.map (encode sat) answers }

let check_pass expected route answers =
  let ok =
    match answers with
    | Relations rels ->
      List.for_all2
        (fun exp rel ->
          Engine.Relation.cardinality rel = Query.Rowset.cardinal exp
          && Engine.Relation.fold_rows (fun r ok -> ok && Query.Rowset.mem exp r) rel true)
        expected.on_store rels
    | Rows per_query ->
      List.for_all2
        (fun exp rows ->
          List.length rows = Query.Rowset.cardinal exp
          && List.for_all (Query.Rowset.mem exp) rows)
        (match route with Saturated -> expected.on_sat | Views | Reformulated -> expected.on_store)
        per_query
  in
  check ok (Printf.sprintf "answer: route %s disagrees with Reference" (route_name route))

(* ------------------------------------------------------------------ *)
(* Update                                                               *)

type update = Insert of Rdf.Triple.t | Delete of Rdf.Triple.t

(* One item of the update stream: a triple of an existing entity, either
   already in the store (deleted, then put back) or not (inserted, then
   deleted).  Either way the item's second operation restores the store,
   so every item starts from the set-up's store. *)
type item = { triple : Rdf.Triple.t; present : bool; fault : bool }

let item_ops it =
  if it.present then [ Delete it.triple; Insert it.triple ]
  else [ Insert it.triple; Delete it.triple ]

(* The fault kept in the [update] workload.  Engine.Maintenance has no
   entry point for UCQ views, so a post-reformulation view is maintained
   disjunct by disjunct: on a delete, a tuple that one disjunct derives
   only through the deleted triple is dropped even when another disjunct
   of the same view still derives it.  [delete_loses] decides, with
   Evaluation.Reference alone, whether deleting [t] (in the store) hits
   that fault on one of [views]; the store is left as it was. *)
let unify pairs =
  List.fold_left
    (fun env (qt, t) ->
      match (env, qt) with
      | None, _ -> None
      | Some _, Query.Qterm.Cst c -> if Rdf.Term.equal c t then env else None
      | Some e, Query.Qterm.Var x -> (
        match List.assoc_opt x e with
        | Some b -> if Rdf.Term.equal b t then env else None
        | None -> Some ((x, t) :: e)))
    (Some []) pairs

let unify_atom (at : Query.Atom.t) (t : Rdf.Triple.t) =
  unify
    [ (at.Query.Atom.s, t.Rdf.Triple.s); (at.Query.Atom.p, t.Rdf.Triple.p);
      (at.Query.Atom.o, t.Rdf.Triple.o) ]

let bind env d = Query.Cq.subst (fun x -> Option.map Query.Qterm.cst (List.assoc_opt x env)) d

let derives store (d : Query.Cq.t) tuple =
  match unify (List.combine d.Query.Cq.head (Array.to_list tuple)) with
  | None -> false
  | Some env -> Query.Evaluation.Reference.eval_cq store (bind env d) <> []

let delete_loses store views (t : Rdf.Triple.t) =
  let through_t =
    List.concat_map
      (fun u ->
        let ds = Query.Ucq.disjuncts u in
        List.concat_map
          (fun (d : Query.Cq.t) ->
            List.concat_map
              (fun (at : Query.Atom.t) ->
                match unify_atom at t with
                | None -> []
                | Some env ->
                  List.map (fun c -> (ds, d, c))
                    (Query.Evaluation.Reference.eval_cq store (bind env d)))
              d.Query.Cq.body)
          ds)
      views
  in
  ignore (Rdf.Store.remove store t);
  let loses =
    List.exists
      (fun (ds, d, c) ->
        (not (derives store d c)) && List.exists (fun d' -> d' != d && derives store d' c) ds)
      through_t
  in
  ignore (Rdf.Store.add store t);
  loses

(* The stream of one seed, for the recommended views.  It has one item
   per property and kind of link update (one of its links deleted, a new
   link between two existing entities added), one new typing per class
   and one deleted typing per leaf class (the generator types entities
   into leaves only): the seed picks the entities, never the properties
   or classes, so every seed's stream has the same mix of cheap and
   costly updates.  A drawn update is kept when [delete_loses] says its
   delete does not hit the fault; [update] adds [fault_items] deleted
   typings into Class5's subtree that do hit it, of entities that stay in
   Class5 by another derivation.  The same seed and views give the same
   stream, so every round, and every run of the seed, does the same
   operations. *)
let class5_subtree = [ 5; 11; 12; 23; 24; 25; 26 ]

let stream_of cfg ~seed st views =
  let rng = Random.State.make [| seed; 0x5eed |] in
  let decode k = Rdf.Store.decode_term st.store k in
  (* existing triples by property, typings by class *)
  let existing = Hashtbl.create 128 in
  Rdf.Store.fold_all st.store
    (fun (s, p, o) () ->
      let t = Rdf.Triple.make (decode s) (decode p) (decode o) in
      let key = if Rdf.Term.equal t.Rdf.Triple.p Rdf.Vocabulary.rdf_type then t.Rdf.Triple.o else t.Rdf.Triple.p in
      Hashtbl.replace existing key (t :: Option.value ~default:[] (Hashtbl.find_opt existing key)))
    ();
  (* fold order is the store's, not the seed's: sort before shuffling *)
  let shuffled keys =
    ref
      (shuffle rng
         (List.sort Rdf.Triple.compare
            (List.concat_map (fun k -> Option.value ~default:[] (Hashtbl.find_opt existing k)) keys)))
  in
  (* a property or class whose every link or typing would hit the fault
     takes its item from all existing triples instead, so that every
     seed's stream has the same number of items *)
  let pool = shuffled (Hashtbl.fold (fun k _ acc -> k :: acc) existing [] |> List.sort Rdf.Term.compare) in
  let from_pool = ref 0 in
  let rec next_of l () =
    match !l with
    | t :: rest -> l := rest; (t, true)
    | [] when l != pool -> incr from_pool; next_of pool ()
    | [] -> failwith "pipebench: the store has too few triples for the update stream"
  in
  let entity () = Rdf.Term.Uri (Printf.sprintf "barton:entity%d" (Random.State.int rng cfg.entities)) in
  let taken = Hashtbl.create 256 and drawn = ref 0 and kept_aside = ref 0 in
  let rec pick ~fault ?(tries = 1000) next =
    if tries = 0 then failwith "pipebench: no usable update for a stream item";
    let t, present = next () in
    incr drawn;
    let usable = (not (Hashtbl.mem taken t)) && Rdf.Store.mem st.store t = present in
    let keep =
      usable
      &&
      if present then delete_loses st.store views t = fault
      else begin
        ignore (Rdf.Store.add st.store t);
        let loses = delete_loses st.store views t in
        ignore (Rdf.Store.remove st.store t);
        not loses
      end
    in
    if usable && not keep then incr kept_aside;
    if keep then begin
      Hashtbl.replace taken t ();
      { triple = t; present; fault }
    end
    else pick ~fault ~tries:(tries - 1) next
  in
  let faults =
    let l = shuffled (List.map class_term class5_subtree) in
    List.init cfg.fault_items (fun _ -> pick ~fault:true (next_of l))
  in
  let take key = pick ~fault:false (next_of (shuffled [ key ])) in
  let take_links = List.init n_properties (fun p -> take (property_term p)) in
  let take_types = List.init 20 (fun i -> take (class_term (19 + i))) in
  let add_links =
    List.init n_properties (fun p ->
        pick ~fault:false (fun () -> (Rdf.Triple.make (entity ()) (property_term p) (entity ()), false)))
  in
  let add_types =
    List.init n_classes (fun c ->
        pick ~fault:false (fun () ->
            (Rdf.Triple.make (entity ()) Rdf.Vocabulary.rdf_type (class_term c), false)))
  in
  let items = faults @ take_links @ take_types @ add_links @ add_types in
  Printf.printf
    "info stream: %d items from %d draws, %d usable draws left out by the fault test, %d draws from the whole store\n"
    (List.length items) !drawn !kept_aside !from_pool;
  shuffle rng items

let view_pairs a =
  List.concat_map
    (fun u ->
      let rel = Hashtbl.find a.env (Query.Ucq.name u) in
      List.map (fun d -> (d, rel)) (Query.Ucq.disjuncts u))
    a.recommended

let apply_views store pairs = function
  | Insert t ->
    Span.record "Engine.Maintenance.insert_triple" (fun () ->
        Engine.Maintenance.insert_triple store pairs t)
  | Delete t ->
    Span.record "Engine.Maintenance.delete_triple" (fun () ->
        Engine.Maintenance.delete_triple store pairs t)

let apply_dred dred = function
  | Insert t ->
    Span.record "Rdf.Incremental.insert" (fun () -> Rdf.Incremental.insert dred t)
  | Delete t ->
    Span.record "Rdf.Incremental.delete" (fun () -> Rdf.Incremental.delete dred t)

(* What a maintained view should hold in one state of the stream: the
   set-up's re-materialization [base], with the rows [added] and without
   the rows [removed] that re-materializing it in that state shows.
   Only the difference is kept per state, so that what the benchmark
   holds for its checks stays small next to what the program holds. *)
type expected_view = {
  base : Engine.Relation.t;
  added : (int array, unit) Hashtbl.t;
  removed : (int array, unit) Hashtbl.t;
}

let unchanged base = { base; added = Hashtbl.create 1; removed = Hashtbl.create 1 }

(* Every view re-materialized on the current store, in the order of
   [recommended], as its difference from [bases]; a view with no atom
   the changed triple can match cannot differ and is not
   re-materialized. *)
let rematerialize (changed : Rdf.Triple.t) store recommended bases =
  let touches u =
    List.exists
      (fun (d : Query.Cq.t) -> List.exists (fun at -> unify_atom at changed <> None) d.Query.Cq.body)
      (Query.Ucq.disjuncts u)
  in
  List.map2
    (fun u base ->
      if not (touches u) then unchanged base
      else begin
        let now = Engine.Materialize.materialize_ucq store u in
        let e = unchanged base in
        let diff a b into =
          Engine.Relation.iter_rows
            (fun r -> if not (Engine.Relation.mem b r) then Hashtbl.replace into (Array.copy r) ())
            a
        in
        diff now base e.added;
        diff base now e.removed;
        e
      end)
    recommended bases

let expects e r = Hashtbl.mem e.added r || (Engine.Relation.mem e.base r && not (Hashtbl.mem e.removed r))

let views_agree a expected =
  List.for_all2
    (fun u e ->
      let rel = Hashtbl.find a.env (Query.Ucq.name u) in
      Engine.Relation.cardinality rel
      = Engine.Relation.cardinality e.base + Hashtbl.length e.added - Hashtbl.length e.removed
      && Engine.Relation.fold_rows (fun r ok -> ok && expects e r) rel true)
    a.recommended expected

(* After a failed update, bring every view back to its re-materialization
   so that the next operation is judged on its own. *)
let resync a expected =
  List.iter2
    (fun u e ->
      let rel = Hashtbl.find a.env (Query.Ucq.name u) in
      List.iter
        (fun r -> if not (expects e r) then ignore (Engine.Relation.remove_row rel r))
        (Engine.Relation.rows rel);
      Engine.Relation.iter_rows
        (fun r -> if expects e r then ignore (Engine.Relation.add_row rel (Array.copy r)))
        e.base;
      Hashtbl.iter (fun r () -> ignore (Engine.Relation.add_row rel (Array.copy r))) e.added)
    a.recommended expected

let check_dred st =
  let fresh =
    Span.record "Rdf.Entailment.saturated_copy" (fun () ->
        Rdf.Entailment.saturated_copy st.store schema)
  in
  check (same_store (saturated st) fresh) "update: DRed store differs from saturated_copy"

(* ------------------------------------------------------------------ *)
(* Traced-only layer probes                                             *)

let obs_counter name =
  Option.value ~default:0 (Obs.find_counter (Obs.global ()) name)

let layer = Hashtbl.create 32
let set_layer name v = Hashtbl.replace layer name v

let atom_patterns st =
  let sat = saturated st in
  List.concat_map
    (fun (q : Query.Cq.t) ->
      List.filter_map
        (fun (at : Query.Atom.t) ->
          let code = function
            | Query.Qterm.Cst c -> (
              match Rdf.Store.find_term sat c with
              | Some k -> Some (Some k)
              | None -> None)
            | Query.Qterm.Var _ -> Some None
          in
          match (code at.Query.Atom.s, code at.Query.Atom.p, code at.Query.Atom.o) with
          | Some ps, Some pp, Some po -> Some { Rdf.Store.ps; pp; po }
          | _ -> None)
        q.Query.Cq.body)
    st.workload

let store_probes st =
  let sat = saturated st in
  let patterns = atom_patterns st in
  let reps = 2000 in
  let (), ns =
    timed (fun () ->
        Span.record "Rdf.Store.count_matching" (fun () ->
            for _ = 1 to reps do
              List.iter (fun p -> ignore (Rdf.Store.count_matching sat p)) patterns
            done))
  in
  set_layer "store.probe_ns"
    (float_of_int ns /. float_of_int (max 1 (reps * List.length patterns)));
  let rows = ref 0 in
  let scan (p : Rdf.Store.pattern) =
    let _, n =
      match (p.Rdf.Store.ps, p.Rdf.Store.pp, p.Rdf.Store.po) with
      | Some s, None, None -> Rdf.Store.scan1 sat `S s
      | None, Some k, None -> Rdf.Store.scan1 sat `P k
      | None, None, Some o -> Rdf.Store.scan1 sat `O o
      | Some s, Some k, None -> Rdf.Store.scan2 sat `SP s k
      | Some s, None, Some o -> Rdf.Store.scan2 sat `SO s o
      | None, Some k, Some o -> Rdf.Store.scan2 sat `PO k o
      | _ -> ([||], 0)
    in
    rows := !rows + n
  in
  let reps = 50 in
  let (), ns =
    timed (fun () ->
        Span.record "Rdf.Store.scan" (fun () ->
            for _ = 1 to reps do
              List.iter scan patterns
            done))
  in
  set_layer "store.scan_row_ns" (float_of_int ns /. float_of_int (max 1 !rows));
  set_layer "store.resident_mb"
    (float_of_int (Rdf.Store.resident_bytes st.store + Rdf.Store.resident_bytes sat) /. 1e6)

(* Counting every relaxation of every workload atom up front, on fresh
   statistics: the counting work the search does lazily inside
   [advise_s], timed apart from it. *)
let stats_probe st =
  let prewarms =
    List.init 3 (fun _ ->
        let stats = Stats.Statistics.create ~mode:(Stats.Statistics.Reformulated schema) st.store in
        snd
          (timed (fun () ->
               Span.record "Stats.Statistics.prewarm" (fun () ->
                   Stats.Statistics.prewarm stats st.workload))))
  in
  set_layer "stats.prewarm_s" (median prewarms /. 1e9)

let plan_probes st =
  let sat = saturated st in
  let compile_ns =
    List.concat_map
      (fun q ->
        List.init 5 (fun _ ->
            snd
              (timed (fun () ->
                   Span.record "Query.Plan.compile" (fun () ->
                       ignore (Query.Plan.compile sat q))))))
      st.workload
  in
  set_layer "plan.compile_us" (median compile_ns /. 1e3);
  let exec_pass () =
    List.iter
      (fun q ->
        let plan = Query.Plan.cached sat q in
        let rows = Query.Rowset.create (max 16 (Query.Plan.size_hint plan)) in
        Span.record "Query.Plan.exec_into" (fun () -> Query.Plan.exec_into plan sat rows))
      st.workload
  in
  exec_pass ();
  let bindings0 = obs_counter "eval.bindings" in
  let passes =
    List.init 20 (fun _ -> snd (timed (fun () -> Span.record "pass.plan" exec_pass)))
  in
  set_layer "plan.exec_pass_ms" (median passes /. 1e6);
  set_layer "eval.bindings"
    (float_of_int (obs_counter "eval.bindings" - bindings0) /. 20.);
  (* a warm repeat served from the MQO result cache: reported here only *)
  Query.Mqo.reset ();
  let replay () =
    List.iter (fun q -> ignore (Query.Evaluation.eval_cq_codes sat q)) st.workload
  in
  replay ();
  replay ();
  let replays =
    List.init 20 (fun _ -> snd (timed (fun () -> Span.record "pass.mqo_replay" replay)))
  in
  set_layer "mqo.replay_pass_ms" (median replays /. 1e6)

(* ------------------------------------------------------------------ *)
(* The run                                                              *)

(* GC collections per phase: totals and the number of times the phase
   ran, so that the reported figures are per phase run. *)
let gc_counts = Hashtbl.create 4

let in_phase name f =
  let s0 = Gc.quick_stat () in
  let v = f () in
  let s1 = Gc.quick_stat () in
  let minor, major, runs = Option.value ~default:(0, 0, 0) (Hashtbl.find_opt gc_counts name) in
  Hashtbl.replace gc_counts name
    ( minor + s1.Gc.minor_collections - s0.Gc.minor_collections,
      major + s1.Gc.major_collections - s0.Gc.major_collections,
      runs + 1 );
  v

let min_rounds = 3

let run cfg ~seed ~seconds ~traced =
  let attempted = ref 0 and failed = ref 0 in
  (* set-up, at least three times and for about three seconds; the last
     one is kept *)
  let setups = ref [] and st = ref None in
  let setup_start = now () in
  while
    List.length !setups < 3
    || (List.length !setups < 15 && now () - setup_start < 3_000_000_000)
  do
    st := None;
    Gc.compact ();
    let s, ns = timed (fun () -> in_phase "setup" (fun () -> build_setup cfg ~seed)) in
    setups := ns :: !setups;
    st := Some s
  done;
  let st = Option.get !st in
  set_layer "entailment.implicit_triples"
    (float_of_int (Rdf.Incremental.implicit_count st.dred));
  check_dred st;
  let sat_size = Rdf.Store.size (saturated st) and store_size = Rdf.Store.size st.store in
  let expected0 = reference_answers st in
  let routes = [ Views; Saturated; Reformulated ] in
  (* The stream, and what the views and answers should be after each of
     its operations, are computed once, in the first round, from the
     first recommendation; every round's recommendation is the same. *)
  let items = ref [||] in
  let expected_base = ref [] and expected_views = ref [||] and expected_answers = ref [||] in
  let advise_ns = ref [] and pass_ns = Hashtbl.create 3 in
  let upd_views = ref [] and upd_sat = ref [] and round_views = ref [] and round_sat = ref [] in
  let maint_ins = ref [] and maint_del = ref [] and incr_ins = ref [] and incr_del = ref [] in
  let maint_tuples = ref 0 and dred_triples = ref 0 in
  let sat_hits = ref (0, 0) and sat_passes = ref 0 and view_rows = ref [] in
  let last = ref None in
  let rounds = ref 0 in
  let deadline = now () + int_of_float (seconds *. 1e9) in
  while !rounds < min_rounds || now () < deadline do
    (* advise: every repetition starts with empty plan and MQO caches,
       as a first deployment would.  The interner and the view counter
       are not reset: cached transitions and compiled plans are keyed by
       the ids they hand out, so a reset would alias old entries. *)
    last := None;
    Query.Plan.reset_cache ();
    Query.Mqo.reset ();
    Gc.compact ();
    let a, ns =
      timed (fun () ->
          in_phase "advise" (fun () ->
              if traced then advise_steps cfg st else advise_whole cfg st))
    in
    advise_ns := ns :: !advise_ns;
    last := Some a;
    check_advice st a;
    (* the search leaves a large heap behind: shrink it before the
       other phases run on it *)
    Gc.compact ();
    (* answer: warm every route, then collect before each timed pass *)
    let timed_pass expected route =
      let prefix0 = obs_counter "mqo.prefix.hits" and result0 = obs_counter "mqo.result.hits" in
      let answers, ns = run_pass st a route in
      incr attempted;
      check_pass expected route answers;
      Hashtbl.replace pass_ns route
        (ns :: Option.value ~default:[] (Hashtbl.find_opt pass_ns route));
      match (route, answers) with
      | Saturated, _ ->
        let p, r = !sat_hits in
        sat_hits :=
          (p + obs_counter "mqo.prefix.hits" - prefix0, r + obs_counter "mqo.result.hits" - result0);
        incr sat_passes
      | Views, Relations rels ->
        view_rows := List.fold_left (fun acc r -> acc + Engine.Relation.cardinality r) 0 rels :: !view_rows
      | _ -> ()
    in
    in_phase "answer" (fun () ->
        List.iter (fun r -> check_pass expected0 r (fst (run_pass st a r))) routes;
        for _ = 1 to cfg.passes do
          Gc.major ();
          List.iter (timed_pass expected0) routes
        done);
    (* update: one round of the stream; the first round also draws the
       stream and computes what the views and answers should be after
       each of its operations *)
    if !rounds = 0 then begin
      (* hundreds of re-materializations: a tighter GC keeps their
         garbage from setting peak_heap_mb *)
      let gc = Gc.get () in
      Gc.set { gc with Gc.space_overhead = 20 };
      items := Array.of_list (stream_of cfg ~seed st a.recommended);
      let bases = List.map (Engine.Materialize.materialize_ucq st.store) a.recommended in
      expected_base := List.map unchanged bases;
      let away it f =
        (if it.present then Rdf.Store.remove else Rdf.Store.add) st.store it.triple |> ignore;
        let v = f () in
        (if it.present then Rdf.Store.add else Rdf.Store.remove) st.store it.triple |> ignore;
        v
      in
      expected_views :=
        Array.map
          (fun it ->
            away it (fun () ->
                rematerialize it.triple st.store a.recommended bases))
          !items;
      if cfg.interleave then begin
        (* the DRed store is moved along with the explicit one, so that
           the reference answers are those on the saturated store *)
        let dred_away it f =
          let there, back =
            if it.present then (Rdf.Incremental.delete, Rdf.Incremental.insert)
            else (Rdf.Incremental.insert, Rdf.Incremental.delete)
          in
          ignore (there st.dred it.triple);
          let v = f () in
          ignore (back st.dred it.triple);
          v
        in
        expected_answers :=
          Array.map (fun it -> away it (fun () -> dred_away it (fun () -> reference_answers st))) !items
      end;
      Gc.set gc
    end;
    let pairs = view_pairs a in
    Gc.major ();
    let views_ns = ref 0 and sat_ns = ref 0 in
    in_phase "update" (fun () ->
        Array.iteri
          (fun k it ->
            List.iteri
              (fun j op ->
                let changed, v_ns = timed (fun () -> apply_views st.store pairs op) in
                let derived, s_ns = timed (fun () -> apply_dred st.dred op) in
                incr attempted;
                maint_tuples := !maint_tuples + changed;
                dred_triples := !dred_triples + derived;
                views_ns := !views_ns + v_ns;
                sat_ns := !sat_ns + s_ns;
                upd_views := v_ns :: !upd_views;
                upd_sat := s_ns :: !upd_sat;
                (match op with
                | Insert _ -> maint_ins := v_ns :: !maint_ins; incr_ins := s_ns :: !incr_ins
                | Delete _ -> maint_del := v_ns :: !maint_del; incr_del := s_ns :: !incr_del);
                (* after the item's first operation the store is away
                   from the set-up's; after its second, back *)
                let expected = if j = 0 then !expected_views.(k) else !expected_base in
                if not (views_agree a expected) then begin
                  incr failed;
                  let is_fault_op = it.fault && match op with Delete _ -> true | Insert _ -> false in
                  check is_fault_op
                    "update: a maintained view differs from its re-materialization outside the UCQ-maintenance fault";
                  resync a expected
                end;
                if !rounds = 0 && j = 0 && k = Array.length !items / 2 then check_dred st;
                (* one pass after every update, the routes taking
                   turns *)
                if cfg.interleave then
                  timed_pass
                    (if j = 0 then !expected_answers.(k) else expected0)
                    (List.nth routes (((2 * k) + j) mod 3)))
              (item_ops it))
          !items);
    round_views := !views_ns :: !round_views;
    round_sat := !sat_ns :: !round_sat;
    check
      (Rdf.Store.size st.store = store_size && Rdf.Store.size (saturated st) = sat_size)
      "update: a stream round did not restore the stores";
    incr rounds
  done;
  check_dred st;
  let a = Option.get !last in
  Printf.printf "info search: %d states created, cost %.6g -> %.6g, %d views, %d disjuncts\n"
    a.created a.initial_cost a.best_cost (List.length a.recommended)
    (List.fold_left (fun acc u -> acc + Query.Ucq.cardinal u) 0 a.recommended);
  if traced then begin
    store_probes st;
    stats_probe st;
    plan_probes st
  end;
  let peak_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  let passes r = Option.value ~default:[] (Hashtbl.find_opt pass_ns r) in
  let ms ns = ns /. 1e6 and us ns = ns /. 1e3 in
  let per_update ns = us (median ns) /. float_of_int (2 * Array.length !items) in
  let end_to_end =
    [
      ("setup_s", median !setups /. 1e9, "s");
      ("advise_s", median !advise_ns /. 1e9, "s");
      ("view_mb", float_of_int (Engine.Materialize.total_size_bytes st.store a.env) /. 1e6, "MB");
      ("peak_heap_mb", peak_mb, "MB");
      ("answer_views_ms", ms (median (passes Views)), "ms");
      ("answer_views_p90_ms", ms (quantile 0.9 (passes Views)), "ms");
      ("answer_saturated_ms", ms (median (passes Saturated)), "ms");
      ("answer_reformulated_ms", ms (median (passes Reformulated)), "ms");
      ("update_views_us", per_update !round_views, "us");
      ("update_views_p90_us", us (quantile 0.9 !upd_views), "us");
      ("update_saturated_us", per_update !round_sat, "us");
    ]
  in
  if traced then begin
    let span_median name = median (Span.durations name) in
    let per_op total ops = float_of_int total /. float_of_int (max 1 (List.length ops)) in
    set_layer "search.run_s" a.search_s;
    set_layer "search.states_created" (float_of_int a.created);
    set_layer "search.states_per_s" (float_of_int a.created /. a.search_s);
    set_layer "search.best_cost" a.best_cost;
    set_layer "stats.atoms_counted" (float_of_int !atoms_counted);
    set_layer "reformulation.views_ms" (span_median "Query.Reformulation.views" /. 1e6);
    set_layer "reformulation.query_us" (span_median "Query.Reformulation.reformulate" /. 1e3);
    set_layer "reformulation.disjuncts"
      (float_of_int
         (List.fold_left
            (fun acc q -> acc + Query.Ucq.cardinal (Query.Reformulation.reformulate q schema))
            0 st.workload));
    set_layer "simplify.ms" (span_median "Core.Simplify.state_rewritings" /. 1e6);
    set_layer "materialize.s" (span_median "Engine.Materialize.materialize_views" /. 1e9);
    set_layer "materialize.rows" (float_of_int (Engine.Materialize.total_cardinality a.env));
    set_layer "executor.pass_ms" (span_median "pass.views" /. 1e6);
    set_layer "executor.rows" (median !view_rows);
    set_layer "mqo.pass_ms" (span_median "pass.saturated" /. 1e6);
    let p, r = !sat_hits in
    set_layer "mqo.prefix_hits" (float_of_int p /. float_of_int (max 1 !sat_passes));
    set_layer "mqo.result_hits" (float_of_int r /. float_of_int (max 1 !sat_passes));
    set_layer "entailment.saturate_s" (span_median "Rdf.Entailment.saturated_copy" /. 1e9);
    set_layer "maintenance.insert_us" (us (median !maint_ins));
    set_layer "maintenance.delete_us" (us (median !maint_del));
    set_layer "maintenance.tuples" (per_op !maint_tuples !upd_views);
    set_layer "incremental.insert_us" (us (median !incr_ins));
    set_layer "incremental.delete_us" (us (median !incr_del));
    set_layer "incremental.triples" (per_op !dred_triples !upd_sat);
    Hashtbl.iter
      (fun phase (minor, major, runs) ->
        let per_run n = float_of_int n /. float_of_int runs in
        set_layer (Printf.sprintf "gc.%s.minor" phase) (per_run minor);
        set_layer (Printf.sprintf "gc.%s.major" phase) (per_run major))
      gc_counts
  end;
  (end_to_end, !attempted, !failed, !rounds)

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)

let per_layer_units =
  [
    ("stats.prewarm_s", "s"); ("stats.atoms_counted", "count");
    ("search.run_s", "s"); ("search.states_created", "count");
    ("search.states_per_s", "1/s"); ("search.best_cost", "cost");
    ("reformulation.views_ms", "ms"); ("reformulation.query_us", "us");
    ("reformulation.disjuncts", "count"); ("simplify.ms", "ms");
    ("materialize.s", "s"); ("materialize.rows", "count");
    ("executor.pass_ms", "ms"); ("executor.rows", "count");
    ("plan.compile_us", "us"); ("plan.exec_pass_ms", "ms");
    ("eval.bindings", "count"); ("mqo.pass_ms", "ms");
    ("mqo.prefix_hits", "count"); ("mqo.result_hits", "count");
    ("mqo.replay_pass_ms", "ms"); ("store.probe_ns", "ns");
    ("store.scan_row_ns", "ns"); ("store.resident_mb", "MB");
    ("entailment.saturate_s", "s"); ("entailment.implicit_triples", "count");
    ("maintenance.insert_us", "us"); ("maintenance.delete_us", "us");
    ("maintenance.tuples", "count"); ("incremental.insert_us", "us");
    ("incremental.delete_us", "us"); ("incremental.triples", "count");
  ]
  @ List.concat_map
      (fun phase ->
        [ (Printf.sprintf "gc.%s.major" phase, "count"); (Printf.sprintf "gc.%s.minor" phase, "count") ])
      [ "setup"; "advise"; "answer"; "update" ]

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let metrics_json metrics =
  String.concat ", "
    (List.map
       (fun (name, v, unit) ->
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
       metrics)

let usage () =
  prerr_endline
    "usage: pipeline --workload advise|answer|update --seed N --seconds S --trace 0|1 [--trace-out FILE]";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None in
  let trace = ref None and trace_out = ref "" in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); parse rest
    | "--trace-out" :: v :: rest -> trace_out := v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (config_of !workload, !seed, !seconds, !trace) with
  | Some cfg, Some seed, Some seconds, Some traced when seconds > 0. ->
    if traced then begin
      Span.enabled := true;
      Obs.set_global (Obs.create ())
    end;
    let end_to_end, attempted, failed, rounds = run cfg ~seed ~seconds ~traced in
    let metrics =
      if traced then
        List.map
          (fun (name, unit) ->
            (name, Option.value ~default:nan (Hashtbl.find_opt layer name), unit))
          per_layer_units
      else end_to_end
    in
    List.iter (fun (name, v, unit) -> Printf.printf "%-28s %14.4f %s\n" name v unit) metrics;
    Printf.printf "rounds %d, attempted %d, failed %d\n" rounds attempted failed;
    List.iter (fun f -> Printf.printf "CHECK FAILED: %s\n" f) (List.sort_uniq compare !failures);
    if traced && !trace_out <> "" then begin
      Span.write !trace_out
        ~extra:(Printf.sprintf "\"end_to_end_traced\": {%s}" (metrics_json end_to_end))
    end;
    Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
      (!failures = []) attempted failed (metrics_json metrics)
  | _ -> usage ()
