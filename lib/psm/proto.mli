(** PSM rendezvous control messages, carried as fabric control packets. *)

open Psm_import

type Wire.ctrl +=
  | Rts of {
      tag : int64;
      msg_id : int;
      msg_len : int;
      src_rank : int;
    }
      (** request-to-send: announces a large message *)
  | Cts of {
      msg_id : int;
      offset : int;       (** window offset within the message *)
      win_len : int;
      tid_base : int;     (** -1: receiver could not register; send eager *)
      xfer_len : int;
      (** bytes the whole rendezvous moves: the message length, truncated
          to the posted receive (0: nothing to send) *)
      dst_rank : int;     (** rank that issued the CTS *)
    }
      (** clear-to-send: one window is registered and may be SDMA'd *)

(** Size on the wire of a control message. *)
val ctrl_bytes : int
