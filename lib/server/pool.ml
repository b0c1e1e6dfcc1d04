type t = {
  mutex : Mutex.t;
  nonempty : Condition.t;
  jobs : (unit -> unit) Queue.t;
  mutable stopping : bool;
  mutable domains : unit Domain.t list;
  size : int;
}

let default_size () = max 2 (min 8 (Domain.recommended_domain_count () - 1))

let worker t () =
  let rec loop () =
    Mutex.lock t.mutex;
    while Queue.is_empty t.jobs && not t.stopping do
      Condition.wait t.nonempty t.mutex
    done;
    if Queue.is_empty t.jobs && t.stopping then Mutex.unlock t.mutex
    else begin
      let job = Queue.pop t.jobs in
      Mutex.unlock t.mutex;
      (try Gql_graph.Par.charged job
       with _ -> () (* a job's failure is the job's problem *));
      loop ()
    end
  in
  loop ()

let create ?size () =
  let size = match size with Some n -> max 1 n | None -> default_size () in
  let t =
    {
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      jobs = Queue.create ();
      stopping = false;
      domains = [];
      size;
    }
  in
  t.domains <- List.init size (fun _ -> Domain.spawn (worker t));
  t

let size t = t.size

let submit t job =
  Mutex.lock t.mutex;
  if t.stopping then begin
    Mutex.unlock t.mutex;
    invalid_arg "Pool.submit: pool is shutting down"
  end;
  Queue.push job t.jobs;
  Condition.signal t.nonempty;
  Mutex.unlock t.mutex

let shutdown t =
  Mutex.lock t.mutex;
  t.stopping <- true;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.domains;
  t.domains <- []
