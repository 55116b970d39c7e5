(** The RTL graph.

    A circuit is a mutable directed graph whose nodes are registers (split
    into a read node holding the state and a next node computing the value
    to latch, as full-cycle simulators do to break cycles), combinational
    logic nodes holding an expression, circuit inputs, and memory read
    ports.  Memories are state arrays with combinational read ports and
    end-of-cycle write ports.

    Node ids are dense small integers; deleting a node leaves a hole until
    {!compact} renumbers the graph. *)

module Bits = Gsim_bits.Bits

type kind =
  | Input
  | Logic
  | Reg_read of int          (** index into the register table *)
  | Reg_next of int
  | Mem_read of int          (** index into the read-port table *)

type node = {
  id : int;
  mutable name : string;
  mutable width : int;
  mutable kind : kind;
  mutable expr : Expr.t option;
      (** Present exactly on [Logic] and [Reg_next] nodes. *)
  mutable is_output : bool;
      (** Observable nodes are never dead-code eliminated. *)
}

type reset = {
  reset_signal : int;        (** 1-bit node asserting the reset *)
  reset_value : Bits.t;
  mutable slow_path : bool;
      (** When true the engines apply the reset outside node evaluation
          (the paper's reset-handling optimization); the [Reg_next]
          expression then no longer mentions the reset. *)
}

type register = {
  reg_name : string;
  read : int;
  next : int;
  init : Bits.t;
  mutable reset : reset option;
  mutable dead : bool;
}

type write_port = { w_addr : int; w_data : int; w_en : int }

type read_port = { r_mem : int; r_data : int; r_addr : int; r_en : int option }

type memory = {
  mem_name : string;
  mem_width : int;
  depth : int;
  mutable write_ports : write_port list;
  mutable read_port_ids : int list;  (** node ids of the [Mem_read] nodes *)
}

type t

exception Combinational_cycle of int list
(** Carries the node ids of one cycle. *)

(** {1 Construction} *)

val create : ?name:string -> unit -> t

val name : t -> string

val add_input : t -> name:string -> width:int -> node

val add_logic : t -> name:string -> Expr.t -> node
(** A combinational node computing the given expression. *)

val add_register :
  t -> name:string -> width:int -> init:Bits.t ->
  ?reset:int * Bits.t -> unit -> register
(** Creates the read node immediately; the next-value expression is
    supplied later with {!set_next}.  [reset] gives the 1-bit reset signal
    node and the reset value; the caller's next expression should NOT
    include the reset mux — it is added by {!set_next} so that the
    reset-optimization pass has a canonical form to strip. *)

val set_next : t -> register -> Expr.t -> unit

val add_memory : t -> name:string -> width:int -> depth:int -> int
(** Returns the memory index. *)

val add_read_port : t -> mem:int -> name:string -> addr:int -> ?en:int -> unit -> node
(** Combinational read port; returns the data node. *)

val add_write_port : t -> mem:int -> addr:int -> data:int -> en:int -> unit

val mark_output : t -> int -> unit

(** {1 Access} *)

val node : t -> int -> node
(** Raises [Invalid_argument] if the id is out of range or deleted. *)

val node_opt : t -> int -> node option

val node_count : t -> int
(** Number of live nodes. *)

val max_id : t -> int
(** Ids are in [0, max_id); some may be deleted. *)

val iter_nodes : t -> (node -> unit) -> unit

val fold_nodes : t -> init:'a -> f:('a -> node -> 'a) -> 'a

val registers : t -> register list

val memories : t -> memory array

val memory : t -> int -> memory

val inputs : t -> node list

val outputs : t -> node list

val register_of_node : t -> int -> register option
(** The register a [Reg_read]/[Reg_next] node belongs to. *)

val read_port : t -> int -> read_port
(** By read-port table index (as stored in [Mem_read]). *)

val find_node : t -> string -> node option
(** Finds a live node by name (linear scan; for tests and the CLI). *)

(** {1 Mutation used by optimization passes} *)

val set_expr : t -> int -> Expr.t -> unit
(** Replace the expression of a [Logic]/[Reg_next] node (same width). *)

val delete_node : t -> int -> unit
(** The node must have no remaining uses; registers/memories referencing it
    must have been fixed up first. *)

val delete_register : t -> register -> unit
(** Marks the register dead and deletes its two nodes. *)

val replace_uses : t -> of_:int -> with_:Expr.t -> unit
(** Substitute every [Var of_] occurrence in every expression, every memory
    port operand and every register reset signal.  For ports and reset
    signals the replacement must itself be a [Var]. *)

val replace_read_port : t -> int -> read_port -> unit
(** Patch a read port's operands in place (by port table index).  The data
    node and memory must stay the same. *)

val fresh_name : t -> string -> string

(** {1 Structure} *)

val dependencies : t -> int -> int list
(** Nodes whose current-cycle value this node reads: expression variables,
    plus address/enable for read ports.  Register read nodes and inputs
    have none. *)

val successors : t -> int list array
(** [successors c] is a fresh table: for each id, the ids whose evaluation
    reads it this cycle (indexed by id; deleted ids map to []). *)

val eval_order : t -> int array
(** Topological order over all nodes that carry an expression or are read
    ports.  Raises {!Combinational_cycle}. *)

val check_acyclic : t -> unit

val cycle_diagnostic : t -> int list -> string
(** Human-readable description of a {!Combinational_cycle} witness,
    naming the nodes on the loop ([a -> b -> a]). *)

val validate : t -> unit
(** Checks the representation invariants: expression widths match node
    widths, variable references point to live nodes with matching widths,
    port and reset references are live, exactly the right kinds carry
    expressions.  Raises [Failure] with a description otherwise. *)

val copy : t -> t
(** Deep copy: node ids are preserved; mutating the copy leaves the
    original untouched. *)

val compact : t -> int array
(** Renumber nodes densely.  Returns the old-id -> new-id map (-1 for
    deleted ids). *)

val digest : t -> Digest.t
(** 128-bit digest of one binary walk over exactly the facts
    {!Ir_text.to_string} prints: the circuit name, the memories, each
    live node's id, kind, width, name, expression (operator tags, widths,
    constant limbs) and output mark, the live registers with init and
    reset (signal, value, slow-path flag), and the read and write ports.
    Circuits built separately with equal text digest equal.  It is the
    one circuit key: the plan cache and the native object cache both use
    it. *)

(** {1 Statistics} *)

type stats = { ir_nodes : int; ir_edges : int; registers_count : int; memories_count : int }

val stats : t -> stats
(** IR node and edge counts as reported in the paper's Table I: every live
    node counts; every (dependency) connection counts as an edge, plus the
    sequential edge from each register's next node to its read node. *)

val pp_stats : Format.formatter -> stats -> unit
