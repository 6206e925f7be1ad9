(** A compact textual wire format for histories — save, diff and feed
    histories to the checkers from the command line.

    One token per event: invocations [+b1@2 +r1(x) +w1(x)=5 +c1 +a1],
    responses [-ok1 -v1=0 -C1 -A1]; [#] starts a comment.  Response
    operations are reconstructed from the transaction's pending
    invocation, which is unambiguous for well-formed histories.  Values
    are integers. *)

val print : History.t -> string
(** @raise Invalid_argument on non-integer values. *)

val parse : string -> (History.t, string) result
