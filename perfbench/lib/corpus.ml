(* The query corpus: a bibliographic database shaped like the papers.db
   example (papers, the authors who wrote them, the venues they appeared
   in), generated from a seed, plus the query mix run against it.

   Shape: publication counts grow 3% a year over 1975-2024, venue
   popularity and author productivity are Zipf-skewed (exponents 0.5 and
   0.7), and a paper has 1-3 authors, uniformly.  These four parameters
   are assumptions, not fitted to published figures: they follow the
   direction of the usual bibliometric regularities (growing output,
   papers concentrated in a few venues, a few prolific authors) and set
   the selectivities NOTES.md lists.  At the default sizes [papers] is a
   310-page heap chain, ~5x the engine's 64-frame buffer pool; [venues]
   fits in one page. *)

module R = Relational
module V = R.Value

type sizes = {
  papers : int;
  authors : int;
  venues : int;
  per_kind : int;  (** distinct queries of each kind in the mix *)
}

let default_sizes = { papers = 20_000; authors = 10_000; venues = 50; per_kind = 16 }

type kind = Point | Range | Join2 | Join3

let kinds = [ Point; Range; Join2; Join3 ]

let kind_name = function
  | Point -> "point"
  | Range -> "range"
  | Join2 -> "join2"
  | Join3 -> "join3"

(* [shape] refines [kind] where one kind has two plans: a point query on
   papers reads the B+tree, one on authors the hash index. *)
type query = { kind : kind; shape : string; text : string }

type t = {
  tables : (string * R.Relation.t) list;  (** in load order *)
  queries : query array;  (** the four kinds interleaved, equal shares *)
  payload_bytes : int;  (** user data: 8 bytes per int, a string's length *)
}

let first_year = 1975
let years = 50

(* Inverse-CDF sampler over [0, n) with the given weights. *)
let sampler weights =
  let n = Array.length weights in
  let cdf = Array.make n 0. in
  let total =
    Array.fold_left
      (fun (i, acc) w ->
        cdf.(i) <- acc +. w;
        (i + 1, acc +. w))
      (0, 0.) weights
    |> snd
  in
  fun rng ->
    let u = Support.Rng.float rng total in
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if u < cdf.(mid) then search lo mid else search (mid + 1) hi
    in
    search 0 (n - 1)

let zipf_weights n s = Array.init n (fun i -> 1. /. Float.pow (float_of_int (i + 1)) s)

let words =
  [| "query"; "logic"; "datalog"; "chase"; "views"; "indexing"; "recursion";
     "transactions"; "locking"; "recovery"; "schemas"; "dependencies";
     "complexity"; "semantics"; "optimization"; "incomplete"; "streams";
     "joins"; "constraints"; "provenance" |]

let title rng =
  String.concat " " (List.init 3 (fun _ -> Support.Rng.pick rng words))

let schema = R.Schema.make

let generate_tables rng sizes =
  let venue = sampler (zipf_weights sizes.venues 0.5) in
  let year = sampler (Array.init years (fun i -> Float.pow 1.03 (float_of_int i))) in
  let author = sampler (zipf_weights sizes.authors 0.7) in
  let papers =
    List.init sizes.papers (fun pid ->
        [ V.Int pid; V.Int (venue rng); V.Int (first_year + year rng);
          V.String (title rng) ])
  in
  let writes =
    List.concat_map
      (fun pid ->
        let k = 1 + Support.Rng.int rng 3 in
        let rec pick chosen =
          if List.length chosen = k then chosen
          else
            let a = author rng in
            pick (if List.mem a chosen then chosen else a :: chosen)
        in
        List.map (fun aid -> [ V.Int pid; V.Int aid ]) (pick []))
      (List.init sizes.papers Fun.id)
  in
  [
    ( "papers",
      R.Relation.of_list
        (schema [ ("pid", V.TInt); ("vid", V.TInt); ("year", V.TInt); ("title", V.TString) ])
        papers );
    ( "writes",
      R.Relation.of_list (schema [ ("pid", V.TInt); ("aid", V.TInt) ]) writes );
    ( "authors",
      R.Relation.of_list
        (schema [ ("aid", V.TInt); ("aname", V.TString) ])
        (List.init sizes.authors (fun aid ->
             [ V.Int aid; V.String (Printf.sprintf "author%05d" aid) ])) );
    ( "venues",
      R.Relation.of_list
        (schema [ ("vid", V.TInt); ("vname", V.TString) ])
        (List.init sizes.venues (fun vid ->
             [ V.Int vid; V.String (Printf.sprintf "venue%02d" vid) ])) );
  ]

(* Constants are stratified: the i-th of [n] queries of a kind draws from
   the i-th n-th of the constant's range, so every seed covers the range
   evenly and per-kind medians do not hinge on a lucky draw. *)
let generate_queries rng sizes =
  let n = sizes.per_kind in
  let strat i lo width = lo + int_of_float ((float_of_int i +. Support.Rng.float rng 1.) /. float_of_int n *. float_of_int width) in
  let query kind i =
    let shape, text =
      match kind with
      | Point ->
          if i mod 2 = 0 then
            ("point-papers", Printf.sprintf "select[pid = %d](papers)" (strat i 0 sizes.papers))
          else
            ("point-authors", Printf.sprintf "select[aid = %d](authors)" (strat i 0 sizes.authors))
      | Range ->
          (* the last nine years: ~4-30% of the papers *)
          ("range", Printf.sprintf "select[year >= %d](papers)" (strat i (first_year + years - 9) 9))
      | Join2 ->
          ( "join2",
            Printf.sprintf "project[title, vname](select[year = %d](papers join venues))"
              (strat i first_year years) )
      | Join3 ->
          ( "join3",
            Printf.sprintf
              "project[aname](select[year = %d and vid = %d](papers join writes join authors))"
              (strat i first_year years)
              (Support.Rng.int rng sizes.venues) )
    in
    { kind; shape; text }
  in
  let per_kind = List.map (fun k -> Array.init n (query k)) kinds in
  Array.init (4 * n) (fun j -> (List.nth per_kind (j mod 4)).(j / 4))

let value_bytes = function
  | V.Int _ | V.Float _ -> 8
  | V.Bool _ -> 1
  | V.String s -> String.length s

let payload tables =
  List.fold_left
    (fun acc (_, rel) ->
      R.Relation.fold
        (fun tup acc -> Array.fold_left (fun acc v -> acc + value_bytes v) acc tup)
        rel acc)
    0 tables

let generate ?(sizes = default_sizes) seed =
  let rng = Support.Rng.create seed in
  let tables = generate_tables (Support.Rng.split rng) sizes in
  let queries = generate_queries (Support.Rng.split rng) sizes in
  { tables; queries; payload_bytes = payload tables }

let database t = R.Database.of_list t.tables

(* What [dbmeta db query] prints for [text]: the result projected onto the
   query's own schema, rendered as a table. *)
let render schema result =
  R.Relation.to_string (R.Relation.project result (R.Schema.attributes schema))

(* The oracle: the in-memory evaluator's rendering of each distinct query
   text, computed once. *)
let expected t =
  let db = database t in
  let catalog = R.Algebra.catalog_of_database db in
  let table = Hashtbl.create 64 in
  Array.iter
    (fun q ->
      if not (Hashtbl.mem table q.text) then begin
        let expr = R.Query_parser.parse q.text in
        Hashtbl.replace table q.text
          (render (R.Algebra.schema_of catalog expr) (R.Eval.eval db expr))
      end)
    t.queries;
  table

let digest t =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (List.map (fun (name, rel) -> name ^ "\n" ^ R.Relation.to_string rel) t.tables
          @ Array.to_list (Array.map (fun q -> q.text) t.queries))))
