(* The result line and the metric catalogue. The catalogue must agree
   with BENCHMARK.json (the harness's tests check it): every untraced
   run prints each end-to-end metric, every traced run each per-layer
   metric. *)

type metric = { name : string; unit_ : string; value : float }

let end_to_end =
  [
    ("throughput_qps", "1/s");
    ("query_ms_geomean", "ms");
    ("latency_p50_ms", "ms");
    ("latency_p99_ms", "ms");
    ("peak_rss_mb", "MB");
    ("setup_s", "s");
  ]

let layer_names = [ "parse"; "dnf"; "sum"; "merge"; "render" ]

let per_layer ~paper_rows =
  [
    ("error_rate", "ratio");
    ("preslang.parse_ms", "ms");
    ("omega.dnf_ms", "ms");
    ("omega.dnf_clauses", "count");
    ("omega.feas_hit_ratio", "ratio");
    ("omega.eliminations", "count");
    ("omega.probe_refuted_ratio", "ratio");
    ("omega.pruned_pins", "count");
    ("counting.sum_ms", "ms");
    ("counting.splinters", "count");
    ("counting.pieces", "count");
    ("counting.merge_ms", "ms");
    ("answer.render_ms", "ms");
    ("answer.bytes", "bytes");
  ]
  @ List.concat_map
      (fun l ->
        [
          (Printf.sprintf "alloc.%s.minor_words" l, "words");
          (Printf.sprintf "alloc.%s.major_words" l, "words");
        ])
      layer_names
  @ List.map (fun r -> (Printf.sprintf "query.%s_ms" r, "ms")) paper_rows
  @ [
      ("query.generated_geomean_ms", "ms");
      ("serve.roundtrip_light_ms", "ms");
      ("serve.roundtrip_splinter_ms", "ms");
      ("serve.service_light_ms", "ms");
      ("serve.service_splinter_ms", "ms");
      ("serve.wait_light_ms", "ms");
      ("serve.wait_splinter_ms", "ms");
      ("serve.key_ms", "ms");
      ("serve.cache_hit_ratio", "ratio");
      ("serve.shed", "count");
      ("serve.partial", "count");
      ("serve.errors", "count");
      ("pool.busy_us", "us");
      ("certify.build_ms", "ms");
      ("certify.bytes", "bytes");
      ("certify.unwitnessed", "count");
      ("certcheck.check_ms", "ms");
      ("latency_p99_beyond", "count");
      ("host.ref_ms", "ms");
      ("trace.overhead_pct", "%");
    ]

let per_layer_metrics = per_layer ~paper_rows:Corpus.paper_row_names

type result = {
  attempted : int;
  failed : int;
  metrics : metric list;
}

(* Keep only the catalogue's metrics, in catalogue order, each with the
   catalogue's unit; a catalogue metric a workload does not reach
   reads 0. *)
let select catalogue values =
  List.map
    (fun (name, unit_) ->
      let value =
        match List.assoc_opt name values with
        | Some v when Float.is_finite v -> v
        | _ -> 0.
      in
      { name; unit_; value })
    catalogue

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let line r =
  let b = Buffer.create 2048 in
  Printf.bprintf b "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{"
    (r.failed = 0 && r.attempted > 0) r.attempted r.failed;
  List.iteri
    (fun i m ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "\"%s\":{\"value\":%s,\"unit\":\"%s\"}" m.name
        (json_number m.value) m.unit_)
    r.metrics;
  Buffer.add_string b "}}";
  Buffer.contents b
