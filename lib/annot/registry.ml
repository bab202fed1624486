(** Registry of annotated function-pointer slot types.

    A {e slot type} names a function-pointer position in a kernel
    interface — e.g. ["proto_ops.ioctl"] or
    ["net_device_ops.ndo_start_xmit"] — together with its parameter
    names and its annotation set.  Kernel indirect-call sites pass the
    slot-type name; the LXFI runtime resolves it here to obtain the
    expected annotation hash and the contract to enforce around the
    call. *)

type slot = {
  sl_name : string;
  sl_params : string list;  (** parameter names, excluding the return value *)
  sl_annot : Ast.t;
  sl_ahash : int64;
  sl_code : Compiled.t;  (** [sl_annot] compiled against [sl_params] *)
}

type t = { slots : (string, slot) Hashtbl.t }

let create () = { slots = Hashtbl.create 64 }

exception Unknown_slot of string

type error =
  | Duplicate of string  (** slot-type name already defined *)
  | Parse of { name : string; src : string; err : Parser.error }
      (** the [~annot_src] convenience form failed to parse *)
  | Invalid of { name : string; msg : string }
      (** parsed, but [Ast.validate] rejected it against the params *)

let error_to_string = function
  | Duplicate name -> Printf.sprintf "duplicate slot type %s" name
  | Parse { name; src; err } ->
      Printf.sprintf "%s: %s" name (Parser.error_to_string ~src err)
  | Invalid { name; msg } -> Printf.sprintf "%s: invalid annotation: %s" name msg

let pp_error ppf e = Format.pp_print_string ppf (error_to_string e)

let ok_exn = function
  | Ok v -> v
  | Error e -> invalid_arg (Printf.sprintf "Registry.define: %s" (error_to_string e))

(** Parse, hash and compile results, one per [(params, source)] pair
    seen in this process.  Annotation sources are static facts of the
    kernel API, so every boot would otherwise redo all three for the
    same strings.  Parse errors are kept too; validation is not, since
    it belongs to each define. *)
let compiled :
    (string list * string, (Ast.t * int64 * Compiled.t, Parser.error) result) Hashtbl.t =
  Hashtbl.create 128

let compile ~params src =
  match Hashtbl.find_opt compiled (params, src) with
  | Some r -> r
  | None ->
      let r =
        Result.map
          (fun a -> (a, Hash.of_annot ~params a, Compiled.compile ~params a))
          (Parser.parse src)
      in
      Hashtbl.replace compiled (params, src) r;
      r

let add t ~name ~params ~annot ~ahash ~code : (slot, error) result =
  if Hashtbl.mem t.slots name then Error (Duplicate name)
  else
    match Ast.validate ~params annot with
    | Error msg -> Error (Invalid { name; msg })
    | Ok () ->
        let s =
          { sl_name = name; sl_params = params; sl_annot = annot; sl_ahash = ahash; sl_code = code }
        in
        Hashtbl.replace t.slots name s;
        Ok s

(** [define t ~name ~params ~annot] registers an already-parsed slot
    type; validation against [params] still runs so a slot in the
    registry is always internally consistent. *)
let define t ~name ~params ~annot =
  add t ~name ~params ~annot ~ahash:(Hash.of_annot ~params annot)
    ~code:(Compiled.compile ~params annot)

(** Parses [annot_src] first, through {!compile}. *)
let define_src t ~name ~params ~annot_src : (slot, error) result =
  match compile ~params annot_src with
  | Error err -> Error (Parse { name; src = annot_src; err })
  | Ok (annot, ahash, code) -> add t ~name ~params ~annot ~ahash ~code

let define_exn t ~name ~params ~annot_src = ok_exn (define_src t ~name ~params ~annot_src)

let find t name =
  match Hashtbl.find_opt t.slots name with
  | Some s -> s
  | None -> raise (Unknown_slot name)

let find_opt t name = Hashtbl.find_opt t.slots name
let mem t name = Hashtbl.mem t.slots name
let ahash t name = (find t name).sl_ahash

let all t =
  Hashtbl.fold (fun _ s acc -> s :: acc) t.slots []
  |> List.sort (fun a b -> compare a.sl_name b.sl_name)
