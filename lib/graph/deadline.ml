exception Exceeded

type state = {
  mutable at : float;  (** absolute [Unix.gettimeofday] seconds *)
  mutable ticks : int;  (** work units since the domain started *)
}

let key = Domain.DLS.new_key (fun () -> { at = infinity; ticks = 0 })

let current () = (Domain.DLS.get key).at

let with_deadline (t : float) (f : unit -> 'a) : 'a =
  let s = Domain.DLS.get key in
  let prev = s.at in
  s.at <- Float.min t prev;
  Fun.protect ~finally:(fun () -> s.at <- prev) f

let check () =
  let s = Domain.DLS.get key in
  if s.at < infinity && Unix.gettimeofday () > s.at then raise Exceeded

let tick () =
  let s = Domain.DLS.get key in
  if s.at < infinity then begin
    s.ticks <- s.ticks + 1;
    if s.ticks land 1023 = 0 && Unix.gettimeofday () > s.at then raise Exceeded
  end
