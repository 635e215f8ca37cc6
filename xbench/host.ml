(* The host stamp every result carries, so figures from different
   machines can be told apart. *)

let cores () = Domain.recommended_domain_count ()

let json () =
  Ximd_farm.Json.(
    to_string
      (Obj
         [ ("cores", Int (cores ()));
           ("ocaml", String Sys.ocaml_version);
           ("word_size", Int Sys.word_size);
           ("ocamlrunparam",
             String (Option.value (Sys.getenv_opt "OCAMLRUNPARAM") ~default:""))
         ]))
