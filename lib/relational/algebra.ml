type comparison = Eq | Ne | Lt | Le | Gt | Ge

type operand = Attr of Schema.attribute | Const of Value.t

type predicate =
  | True
  | False
  | Cmp of comparison * operand * operand
  | And of predicate * predicate
  | Or of predicate * predicate
  | Not of predicate

type t =
  | Rel of string
  | Singleton of (Schema.attribute * Value.t) list
  | Select of predicate * t
  | Project of Schema.attribute list * t
  | Rename of (Schema.attribute * Schema.attribute) list * t
  | Product of t * t
  | Join of t * t
  | Union of t * t
  | Inter of t * t
  | Diff of t * t
  | Divide of t * t

exception Type_error of string

type catalog = string -> Schema.t

let err fmt = Printf.ksprintf (fun s -> raise (Type_error s)) fmt

let operand_type schema = function
  | Const v -> Value.type_of v
  | Attr a ->
      if Schema.mem schema a then Schema.type_of_attr schema a
      else err "predicate mentions attribute %S absent from schema %s" a (Schema.to_string schema)

let rec check_predicate schema = function
  | True | False -> ()
  | Cmp (_, l, r) ->
      let tl = operand_type schema l and tr = operand_type schema r in
      if tl <> tr then
        err "comparison between %s and %s" (Value.ty_to_string tl)
          (Value.ty_to_string tr)
  | And (p, q) | Or (p, q) ->
      check_predicate schema p;
      check_predicate schema q
  | Not p -> check_predicate schema p

let rec schema_of catalog expr =
  match expr with
  | Rel name -> catalog name
  | Singleton bindings ->
      (try Schema.make (List.map (fun (a, v) -> (a, Value.type_of v)) bindings)
       with Schema.Schema_error m -> err "singleton: %s" m)
  | Select (p, e) ->
      let s = schema_of catalog e in
      check_predicate s p;
      s
  | Project (attrs, e) ->
      let s = schema_of catalog e in
      (try Schema.project s attrs
       with Schema.Schema_error m -> err "project: %s" m)
  | Rename (mapping, e) ->
      let s = schema_of catalog e in
      (try Schema.rename s mapping
       with Schema.Schema_error m -> err "rename: %s" m)
  | Product (a, b) ->
      let sa = schema_of catalog a and sb = schema_of catalog b in
      (try Schema.product sa sb
       with Schema.Schema_error m -> err "product: %s" m)
  | Join (a, b) ->
      let sa = schema_of catalog a and sb = schema_of catalog b in
      (try Schema.join sa sb with Schema.Schema_error m -> err "join: %s" m)
  | Union (a, b) | Inter (a, b) | Diff (a, b) ->
      let sa = schema_of catalog a and sb = schema_of catalog b in
      if Schema.union_compatible sa sb then sa
      else
        err "set operation over incompatible schemas %s and %s"
          (Schema.to_string sa) (Schema.to_string sb)
  | Divide (a, b) ->
      let sa = schema_of catalog a and sb = schema_of catalog b in
      let sb_attrs = Schema.attributes sb in
      List.iter
        (fun attr ->
          if not (Schema.mem sa attr) then
            err "divide: divisor attribute %S absent from dividend %s" attr
              (Schema.to_string sa))
        sb_attrs;
      let keep =
        List.filter (fun a -> not (List.mem a sb_attrs)) (Schema.attributes sa)
      in
      Schema.project sa keep

let well_typed catalog expr =
  match schema_of catalog expr with
  | (_ : Schema.t) -> true
  | exception Type_error _ -> false
  | exception Schema.Schema_error _ -> false

let attributes_of_predicate p =
  let rec collect acc = function
    | True | False -> acc
    | Cmp (_, l, r) ->
        let add acc = function Attr a -> a :: acc | Const _ -> acc in
        add (add acc l) r
    | And (p, q) | Or (p, q) -> collect (collect acc p) q
    | Not p -> collect acc p
  in
  List.sort_uniq String.compare (collect [] p)

let eval_comparison cmp c =
  match cmp with
  | Eq -> c = 0
  | Ne -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0

(* Staged: applied to a schema and a predicate, it resolves attribute
   positions once and returns the per-tuple test.  An unknown attribute
   raises only when the test reads it, as a per-tuple lookup would. *)
let eval_predicate schema p =
  let operand = function
    | Const v -> fun _ -> v
    | Attr a -> (
        match Schema.index_of schema a with
        | i -> fun tup -> tup.(i)
        | exception e -> fun _ -> raise e)
  in
  let rec go = function
    | True -> fun _ -> true
    | False -> fun _ -> false
    | Cmp (cmp, l, r) ->
        let l = operand l and r = operand r in
        fun tup -> eval_comparison cmp (Value.compare (l tup) (r tup))
    | And (p, q) ->
        let p = go p and q = go q in
        fun tup -> p tup && q tup
    | Or (p, q) ->
        let p = go p and q = go q in
        fun tup -> p tup || q tup
    | Not p ->
        let p = go p in
        fun tup -> not (p tup)
  in
  go p

let rec conjuncts = function
  | And (p, q) -> conjuncts p @ conjuncts q
  | True -> []
  | p -> [ p ]

let conjoin = function
  | [] -> True
  | p :: rest -> List.fold_left (fun acc q -> And (acc, q)) p rest

let rec size = function
  | Rel _ | Singleton _ -> 1
  | Select (_, e) | Project (_, e) | Rename (_, e) -> 1 + size e
  | Product (a, b)
  | Join (a, b)
  | Union (a, b)
  | Inter (a, b)
  | Diff (a, b)
  | Divide (a, b) ->
      1 + size a + size b

let comparison_to_string = function
  | Eq -> "="
  | Ne -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let operand_to_string = function
  | Attr a -> a
  | Const v -> Value.to_literal v

let rec predicate_to_string = function
  | True -> "true"
  | False -> "false"
  | Cmp (c, l, r) ->
      Printf.sprintf "%s %s %s" (operand_to_string l) (comparison_to_string c)
        (operand_to_string r)
  | And (p, q) ->
      Printf.sprintf "(%s and %s)" (predicate_to_string p) (predicate_to_string q)
  | Or (p, q) ->
      Printf.sprintf "(%s or %s)" (predicate_to_string p) (predicate_to_string q)
  | Not p -> Printf.sprintf "(not %s)" (predicate_to_string p)

let rec to_string = function
  | Rel name -> name
  | Singleton bindings ->
      "<"
      ^ String.concat ", "
          (List.map
             (fun (a, v) -> Printf.sprintf "%s=%s" a (Value.to_literal v))
             bindings)
      ^ ">"
  | Select (p, e) -> Printf.sprintf "select[%s](%s)" (predicate_to_string p) (to_string e)
  | Project (attrs, e) ->
      Printf.sprintf "project[%s](%s)" (String.concat "," attrs) (to_string e)
  | Rename (mapping, e) ->
      let m =
        String.concat ","
          (List.map (fun (a, b) -> Printf.sprintf "%s->%s" a b) mapping)
      in
      Printf.sprintf "rename[%s](%s)" m (to_string e)
  | Product (a, b) -> Printf.sprintf "(%s x %s)" (to_string a) (to_string b)
  | Join (a, b) -> Printf.sprintf "(%s |x| %s)" (to_string a) (to_string b)
  | Union (a, b) -> Printf.sprintf "(%s U %s)" (to_string a) (to_string b)
  | Inter (a, b) -> Printf.sprintf "(%s ^ %s)" (to_string a) (to_string b)
  | Diff (a, b) -> Printf.sprintf "(%s - %s)" (to_string a) (to_string b)
  | Divide (a, b) -> Printf.sprintf "(%s / %s)" (to_string a) (to_string b)

let pp fmt e = Format.pp_print_string fmt (to_string e)

let catalog_of_database db name =
  match Database.find_opt db name with
  | Some rel -> Relation.schema rel
  | None -> err "unknown relation %S" name
