(** Binary wire framing for the serving protocol.

    Same request/response semantics as the JSON-lines {!Protocol}, but
    length-prefixed binary frames built on {!Persist.Codec}: float payloads
    (endpoint statistics, matrices) ship as raw IEEE-754 bytes instead of
    JSON-escaped text. One frame per message:

    {v
    magic0 0xB5 | magic1 0x7A | version 0x01 | len : fixed32 LE | payload
    v}

    [0xB5] is never the first byte of a JSON-lines message, so a server can
    sniff the first byte of a connection and pick the wire per connection —
    existing JSON clients keep working unchanged.

    Payloads carry the same structured values as the JSON wire (requests
    decode to {!Protocol.request}; response payloads are {!Util.Jsonx.t}), so a
    request answered over either wire yields a bit-identical result. *)

val magic0 : char
(** First frame byte, [0xB5] — the per-connection wire sniff key. *)

val magic1 : char

val version : int
(** Base frame version (1). Writers emit it unless the payload carries the
    trailing request-ID section introduced by version 2. *)

val max_version : int
(** Highest accepted frame version (2: version 1 plus an optional trailing
    [req_id] in request and response payloads). Readers accept
    [version..max_version]; the trailing section is keyed off remaining
    payload bytes, so version-1 peers interoperate unchanged. *)

val max_payload : int
(** Upper bound on the frame length field (16 MiB). Larger lengths are
    rejected with a typed error {e before} any allocation — the framing
    analogue of the [Entity.read_mat] adversarial-header guard. *)

type read_error =
  [ `Eof  (** clean end of stream before any frame byte *)
  | `Corrupt of string
    (** bad magic/version, oversized or truncated frame — the connection
        cannot be resynchronised and must be closed *) ]

val frame : string -> string
(** Wrap a payload in a frame header; raises [Invalid_argument] when the
    payload exceeds {!max_payload}. *)

val unframe : string -> (string, read_error) result
(** Strip and validate the header of exactly one whole frame. *)

val read_frame : ?magic_consumed:bool -> in_channel -> (string, read_error) result
(** Blocking frame read. [~magic_consumed:true] means the caller already
    consumed {!magic0} while sniffing the wire. *)

type line_reader
(** A buffered JSON-lines reader over one connection. *)

val line_reader : ?first:char -> in_channel -> line_reader
(** [~first] is a byte the caller already consumed while sniffing the
    wire; it is read back as the start of the first line. *)

val read_line : line_reader -> (string, read_error) result
(** Blocking read of one JSON-lines request, without its ['\n'] (a final
    line without one is returned at end of input). A line longer than
    {!max_payload} bytes is [`Corrupt] once the cap is passed, so a peer
    cannot make the reader buffer more than the binary wire would. *)

(** {1 Structured values} *)

val encode_jsonx : Persist.Codec.writer -> Util.Jsonx.t -> unit
(** Tagged binary encoding of a JSON tree. A non-empty [List] of all-[Num]
    elements is packed as a raw float array ({!Persist.Codec.write_float_array})
    — zero escape cost for the numeric vectors that dominate payload-heavy
    responses. *)

val decode_jsonx : Persist.Codec.reader -> Util.Jsonx.t
(** Inverse of {!encode_jsonx} (float-array packing decodes back to a [List]
    of [Num]). Raises {!Persist.Codec.Error} on malformed input, including a
    nesting-depth cap against stack-smashing payloads. *)

(** {1 Requests} *)

val encode_request : Protocol.request -> string
(** One full frame (header + binary payload). *)

val decode_request : string -> (Protocol.request, Protocol.reject) result
(** Decode one binary frame {e payload} (header already stripped by
    {!read_frame}/{!unframe}). Mirrors {!Protocol.decode}: malformed
    payloads yield a typed {!Protocol.reject} with the best-effort request
    id. Binary rejects carry no [reject_req_id] (the correlation ID trails
    the payload) and no [field] attribution — the message names the
    offender instead. *)

(** {1 Responses} *)

val ok_response : id:Util.Jsonx.t -> ?req_id:string -> Util.Jsonx.t -> string
(** One full frame. [?req_id] echoes the request's correlation ID as the
    version-2 trailing section; omitted → a version-1 frame, so replies to
    old clients are byte-identical to before. *)

val error_response : id:Util.Jsonx.t -> ?req_id:string -> Protocol.error_code -> string -> string

val decode_response :
  string ->
  ( Util.Jsonx.t * string option * (Util.Jsonx.t, Protocol.error_code * string) result,
    string )
  result
(** Decode one binary response frame payload into
    [(id, echoed req_id, Ok payload | Error (code, message))]; [Error msg]
    when the payload itself is malformed. *)
