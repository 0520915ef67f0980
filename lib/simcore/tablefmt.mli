(** ASCII table rendering for the benchmark harness.

    Every experiment prints its results as a table mirroring the paper's
    layout, so a reader can diff "paper value" against "measured value"
    row by row.  Cells are strings; columns are sized to content. *)

type align = Left | Right

type t

val create : title:string -> columns:(string * align) list -> t
(** A table with the given title and column headers. *)

val add_row : t -> string list -> unit
(** @raise Invalid_argument when the arity differs from the header. *)

val add_rule : t -> unit
(** Insert a horizontal separator after the current last row. *)

val render : t -> string
(** The formatted table, trailing newline included. *)

val cell_f : ?decimals:int -> float -> string
(** Format a float cell ([decimals] defaults to 2). *)

val cell_i : int -> string

val cell_pct : ?decimals:int -> float -> string
(** Format a percentage cell, e.g. [cell_pct 0.253 = "25.3%"] with
    [decimals = 1]. *)
