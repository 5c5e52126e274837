package featbench

import scala.util.Random
import repro.core._
import repro.core.online.{OnlineTable, PreAggTable, RequestEngine}

/** Shared pieces of the two request-serving workloads. */
object RequestWorkload {

  /** Seeded choice of the requests whose responses are checked. */
  def sampled(seed: Long, n: Int, every: Int): Array[Boolean] = {
    val r = new Random(seed ^ 0x5eedL)
    Array.fill(n)(r.nextInt(every) == 0)
  }

  /** Checks kept responses against the brute-force answer; returns the
    * number that differ and a few descriptions.
    */
  def check(kept: Map[Int, Map[String, Any]], expected: Int => Map[String, Any]): (Int, Seq[String]) = {
    val bad = kept.toSeq.sortBy(_._1).flatMap { case (i, resp) =>
      val diff = Reference.mismatches(expected(i), k => resp.getOrElse(k, null))
      if (diff.isEmpty) None else Some(s"event $i: ${diff.take(3).mkString("; ")}")
    }
    (bad.size, bad.take(5))
  }

  /** The timed log replayed as consecutive slices. The metrics cover the
    * whole log; each slice's p50 and throughput go to the run record, to
    * show whether one stretch of the run was disturbed.
    */
  final class Slices(val outs: Seq[Replay.Outcome]) {
    def p50sMs: Seq[Double] = outs.map(o => Stats.percentile(Stats.sortedCopy(o.requestLatNs), 50) / 1e6)
    def throughputs: Seq[Double] = outs.map(o => o.requestLatNs.length / (o.wallNs / 1e9))
    def requestLatNs: Array[Double] = outs.flatMap(_.requestLatNs).toArray
    def insertLatNs: Array[Double] = outs.flatMap(_.insertLatNs).toArray
    /** p50 over every request of the log. */
    def p50Ms: Double = Stats.percentile(Stats.sortedCopy(requestLatNs), 50) / 1e6
    /** Requests answered over the wall time of the whole log. */
    def throughput: Double = requestLatNs.length / (outs.map(_.wallNs).sum / 1e9)
    def responses: Map[Int, Map[String, Any]] = outs.flatMap(_.responses).toMap
    def errors: Long = outs.map(_.errors).sum
    def firstError: Option[Throwable] = outs.flatMap(_.firstError).headOption
    def toJson: Json.Obj = Json.Obj("slices" -> outs.size, "slice_p50_ms" -> p50sMs,
      "slice_throughput_per_s" -> throughputs)
  }

  def slices(from: Int, until: Int, n: Int)(replay: (Int, Int) => Replay.Outcome): Slices =
    new Slices((0 until n).map(k => replay(from + (until - from) * k / n, from + (until - from) * (k + 1) / n)))

  def latencyRecord(name: String, latNs: Array[Double], scale: Double, unit: String): (String, Any) =
    if (latNs.isEmpty) name -> Json.Obj("samples" -> 0)
    else {
      val s = Stats.summary(latNs.map(_ / scale))
      name -> (s.toJson ++ Json.Obj("unit" -> unit))
    }

  /** Per-layer metrics of a traced request replay. */
  def layerMetrics(tr: RequestTrace, untracedP50Ms: Double, gcMs: Double,
                   bucketCount: Long): Seq[Metric] = {
    val t = tr.tracer
    def per(a: Double, b: Double) = if (b == 0) 0.0 else a / b
    val tracedP50Ms = {
      val d = t.byName("online.request").map(_.durNs.toDouble).toArray
      if (d.isEmpty) 0.0 else Stats.percentile(Stats.sortedCopy(d), 50) / 1e6
    }
    Seq(
      Metric("storage.scan_us", t.meanUs("storage.scan"), "us"),
      Metric("storage.rows_per_scan", per(tr.scannedRows, tr.scans), "rows"),
      Metric("storage.latest_us", t.meanUs("storage.latest"), "us"),
      Metric("storage.put_us", t.meanUs("storage.put"), "us"),
      Metric("preagg.query_us", t.meanUs("preagg.query"), "us"),
      Metric("preagg.buckets_per_query", per(tr.buckets, tr.queries), "count"),
      Metric("preagg.raw_rows_per_query", per(tr.rawRows, tr.queries), "rows"),
      Metric("preagg.insert_us", t.meanUs("preagg.insert"), "us"),
      Metric("preagg.bucket_count", bucketCount.toDouble, "count"),
      Metric("functions.fold_ns_per_row", per(t.totalUs("functions.fold") * 1e3, tr.foldUpdates), "ns"),
      Metric("online.request_us", t.meanUs("online.request"), "us"),
      Metric("online.request_self_us", t.meanSelfUs("online.request"), "us"),
      Metric("jvm.alloc_bytes_per_request", per(tr.allocBytes, tr.requests), "B"),
      Metric("jvm.gc_pause_ms", gcMs, "ms"),
      Metric("trace.overhead_ms", tracedP50Ms - untracedP50Ms, "ms"))
  }
}

/** `request-wide`: Table 3's widest point. 1 000 double columns, 2 100
  * sum/avg/min features over one 10 s window holding about 50 rows, 50
  * keys, one closed-loop client, no inserts and no pre-aggregation.
  *
  * `BENCHMARK.json` does not list this workload: its request time follows
  * how much of the host's cache its frames get, which swings between
  * runs (see the README). It runs by hand; the traced `request-mixed` run
  * measures the same engine and `AggCore` layers.
  */
object RequestWide extends Workload {
  val name = "request-wide"
  val Cols = 1000
  val Keys = 50
  val RowsPerKey = 50
  val DistinctRequests = 100
  val Slices = 12
  val Base = 1000000L

  val spec: FeatureSpec = {
    val cols = (0 until Cols).map(i => s"c$i")
    FeatureSpec(
      primary = "t",
      windows = Seq(WindowDef("w", "k", "ts", 10000L)),
      features = cols.flatMap(c => Seq(Feature(s"sum_$c", FeatureFn.Sum(c), "w"),
        Feature(s"avg_$c", FeatureFn.Avg(c), "w"))) ++
        cols.take(Cols / 10).map(c => Feature(s"min_$c", FeatureFn.Min(c), "w")))
  }

  private final case class WideRow(key: String, ts: Long, values: Array[Double]) {
    def row: Map[String, Any] = {
      val b = Map.newBuilder[String, Any]
      var i = 0
      while (i < values.length) { b += s"c$i" -> values(i); i += 1 }
      b += "k" -> key; b += "ts" -> ts
      b.result()
    }
  }

  def run(args: Args): Result = {
    val timed = 50 * args.seconds
    val batch = 40
    val maxWarm = 15
    val rnd = new Random(args.seed)
    def values() = Array.fill(Cols)(math.rint(rnd.nextDouble() * 1e6) / 1e3)
    // Stored rows of a key sit 180 ms apart, all inside a request's window.
    val stored = for (k <- 0 until Keys; i <- 0 until RowsPerKey)
      yield WideRow(s"k$k", Base + i * 180L, values())
    val distinct = (0 until DistinctRequests).map(_ =>
      WideRow(s"k${rnd.nextInt(Keys)}", Base + 9000 + rnd.nextInt(1000), values()).row).toArray
    val events = maxWarm * batch + timed
    val keep = RequestWorkload.sampled(args.seed, events, 40)

    val heap0 = Jvm.retainedHeap()
    val (engine, setupTimes) = Workload.timedSetup(Workload.SetupReps) {
      val table = new OnlineTable("k", "ts")
      val e = new RequestEngine(spec, Map("t" -> table))
      stored.foreach(r => e.insert("t", r.row))
      (e, table)
    }
    val heapPerRow = (Jvm.retainedHeap() - heap0).toDouble / stored.size
    val (eng, table) = engine

    def replay(from: Int, until: Int) =
      Replay.run(from, until, 1, _ => 0, _ => true, keep)(i => eng.request(distinct(i % DistinctRequests)))
    var errors = 0L
    val warm = Stats.warmUntilSteady(5, maxWarm)(b => errors += replay(b * batch, (b + 1) * batch).errors)
    val start = warm.size * batch

    val ref = new Reference.KeyIndex(stored.map(_.row), "k", "ts")
    def expected(i: Int): Map[String, Any] = {
      val req = distinct(i % DistinctRequests)
      val t = req("ts").asInstanceOf[Long]
      Reference.expected(spec, req, w => ref.range(req("k").toString, t - w.rangeMs, t - 1), _ => None)
    }

    Jvm.retainedHeap()
    if (!args.trace) {
      val gc0 = Jvm.gcMillis()
      val out = RequestWorkload.slices(start, start + timed, Slices)(replay)
      val gcMs = Jvm.gcMillis() - gc0
      errors += out.errors
      val (bad, notes) = RequestWorkload.check(out.responses, expected)
      Result(timed, errors + bad, Seq(
        Metric("setup_s", Stats.median(setupTimes), "s"),
        Metric("p50_ms", out.p50Ms, "ms"),
        Metric("throughput_per_s", out.throughput, "1/s"),
        Metric("heap_bytes_per_row", heapPerRow, "B")),
        Json.Obj(
          "sizes" -> Json.Obj("columns" -> Cols, "features" -> spec.features.size, "keys" -> Keys,
            "rows_per_key" -> RowsPerKey, "stored_rows" -> stored.size, "distinct_requests" -> DistinctRequests,
            "timed_requests" -> timed, "warmup_requests" -> start, "clients" -> 1),
          "warmup_batch_s" -> warm, "setup_s" -> setupTimes, "gc_ms" -> gcMs,
          "checked_responses" -> out.responses.size, "timed" -> out.toJson,
          RequestWorkload.latencyRecord("request_ms", out.requestLatNs, 1e6, "ms")),
        notes ++ out.firstError.map(_.toString))
    } else {
      val half = timed / 2
      val gc0 = Jvm.gcMillis()
      val a = replay(start, start + half)
      val gcMs = Jvm.gcMillis() - gc0
      val tr = new RequestTrace(spec, Map("t" -> table), Map.empty, new Tracer)
      val kept = scala.collection.mutable.HashMap.empty[Int, Map[String, Any]]
      (start + half until start + timed).foreach { i =>
        val r = tr.request(eng, i, distinct(i % DistinctRequests))
        if (keep(i)) kept(i) = r
      }
      tr.tracer.write(args.tracePath)
      errors += a.errors
      val (bad, notes) = RequestWorkload.check(a.responses ++ kept, expected)
      val untracedP50 = Workload.ms(Stats.percentile(Stats.sortedCopy(a.requestLatNs), 50))
      Result(timed, errors + bad,
        RequestWorkload.layerMetrics(tr, untracedP50, gcMs.toDouble, 0L),
        Json.Obj("timed_requests" -> timed, "traced_requests" -> (timed - half),
          "spans" -> tr.tracer.spans.size, "trace_file" -> args.tracePath.toString),
        notes ++ a.firstError.map(_.toString))
    }
  }
}

/** `request-mixed`: the Fig 6 MicroBench shape with writes beside reads.
  * One time-ordered log, about half inserts and half requests over
  * zipf(1.1) users, replayed by two closed-loop clients that each own one
  * key-hash partition, on top of a preloaded store and pre-aggregation.
  */
object RequestMixed extends Workload {
  val name = "request-mixed"
  val Threads = 2
  val Users = 5000
  val Preload = 30000
  /** Timed log events per unit of `--seconds`: about a second of work. */
  val EventsPerUnit = 20000
  /** Events in each of the traced run's untraced and traced passes. */
  val TracedEvents = 50000
  val Slices = 12

  private final class Served(val engine: RequestEngine, val tables: Map[String, OnlineTable],
                             val preAgg: Map[(String, String), PreAggTable])

  private def build(d: MixedData.Data): Served = {
    val tables = Map("actions" -> new OnlineTable("user", "ts"), "orders" -> new OnlineTable("user", "ts"),
      "profile" -> new OnlineTable("user", "pts"))
    val preAgg = Map(("w30d", "amount") -> new PreAggTable(MixedData.PreAggLevels))
    val e = new RequestEngine(MixedData.onlineSpec, tables, preAgg)
    d.profiles.foreach(p => e.insert("profile", p.row))
    d.actions.foreach(a => e.insert("actions", a.row))
    d.orders.foreach(o => e.insert("orders", o.row))
    new Served(e, tables, preAgg)
  }

  def run(args: Args): Result = {
    val timed = EventsPerUnit * args.seconds
    val batch = 5000
    val data = MixedData.generate(args.seed, Users, Preload, timed)
    val log = data.log.toArray
    val rows: Array[Map[String, Any]] = log.map {
      case InsertAction(a) => a.row; case InsertOrder(o) => o.row; case Request(a) => a.row
    }
    val tableOf = log.map { case InsertOrder(_) => "orders"; case _ => "actions" }
    val isReq = log.map(_.isInstanceOf[Request])
    val part = log.map(e => math.floorMod(e.user.hashCode, Threads))
    val keep = RequestWorkload.sampled(args.seed, log.length, 50)

    val heap0 = Jvm.retainedHeap()
    val (srv, setupTimes) = Workload.timedSetup(Workload.SetupReps)(build(data))
    val heapPerRow = (Jvm.retainedHeap() - heap0).toDouble / data.storedRows

    def replay(on: Served, from: Int, until: Int, threads: Int) =
      Replay.run(from, until, threads, i => part(i) % threads, isReq, keep) { i =>
        if (isReq(i)) on.engine.request(rows(i)) else { on.engine.insert(tableOf(i), rows(i)); null }
      }
    // Warm-up replays the log's first batch, each time on a fresh build,
    // so every warm-up batch does identical work and the timed replay
    // starts from the same store state however long warm-up ran.
    var errors = 0L
    val warm = Stats.warmUntilSteady(6, 15) { _ =>
      val scratch = build(data)
      errors += replay(scratch, 0, batch, Threads).errors
    }

    lazy val ref = new MixedData.Ref(
      data.actions ++ log.collect { case InsertAction(a) => a },
      data.orders ++ log.collect { case InsertOrder(o) => o }, data.profiles)
    def expected(i: Int): Map[String, Any] = log(i) match {
      case Request(a) => ref.expected(MixedData.onlineSpec, a)
      case other      => throw new IllegalStateException(s"not a request: $other")
    }
    val sizes = Json.Obj("users" -> Users, "zipf" -> 1.1, "preload_rows" -> Preload,
      "stored_rows" -> data.storedRows, "timed_events" -> timed, "warmup_batch_events" -> batch,
      "clients" -> Threads, "features" -> MixedData.onlineSpec.features.size)

    Jvm.retainedHeap()
    if (!args.trace) {
      val gc0 = Jvm.gcMillis()
      val out = RequestWorkload.slices(0, timed, Slices)((a, b) => replay(srv, a, b, Threads))
      val gcMs = Jvm.gcMillis() - gc0
      errors += out.errors
      val (bad, notes) = RequestWorkload.check(out.responses, expected)
      Result(timed, errors + bad, Seq(
        Metric("setup_s", Stats.median(setupTimes), "s"),
        Metric("p50_ms", out.p50Ms, "ms"),
        Metric("throughput_per_s", out.throughput, "1/s"),
        Metric("heap_bytes_per_row", heapPerRow, "B")),
        Json.Obj("sizes" -> sizes, "warmup_batch_s" -> warm, "setup_s" -> setupTimes, "gc_ms" -> gcMs,
          "checked_responses" -> out.responses.size, "timed" -> out.toJson,
          RequestWorkload.latencyRecord("request_ms", out.requestLatNs, 1e6, "ms"),
          RequestWorkload.latencyRecord("insert_us", out.insertLatNs, 1e3, "us")),
        notes ++ out.firstError.map(_.toString))
    } else {
      // Single-threaded passes, so PreAggTable's last-query counters are
      // read for the query just made: an untraced pass over the first
      // [[TracedEvents]] events of the log, then a traced pass over as many.
      val half = math.min(timed / 2, TracedEvents)
      val gc0 = Jvm.gcMillis()
      val a = replay(srv, 0, half, 1)
      val gcMs = Jvm.gcMillis() - gc0
      val tr = new RequestTrace(MixedData.onlineSpec, srv.tables, srv.preAgg, new Tracer)
      val kept = scala.collection.mutable.HashMap.empty[Int, Map[String, Any]]
      (half until 2 * half).foreach { i =>
        if (isReq(i)) { val r = tr.request(srv.engine, i, rows(i)); if (keep(i)) kept(i) = r }
        else tr.insert(i, tableOf(i), rows(i))
      }
      tr.tracer.write(args.tracePath)
      errors += a.errors
      val (bad, notes) = RequestWorkload.check(a.responses ++ kept, expected)
      val untracedP50 = Workload.ms(Stats.percentile(Stats.sortedCopy(a.requestLatNs), 50))
      // The offline layer runs here too: `UnifiedPlanner.offline` over the
      // same spec shape (see OfflineBatch), traced for one batch. Only its
      // `offline.*` metrics are kept; `jvm.gc_pause_ms` is the request pass's.
      val offline = OfflineBatch.run(args.copy(workload = OfflineBatch.name))
      Result(2 * half + offline.attempted, errors + bad + offline.failed,
        RequestWorkload.layerMetrics(tr, untracedP50, gcMs.toDouble, srv.preAgg.values.map(_.bucketCount).sum) ++
          offline.metrics.filter(_.name.startsWith("offline.")),
        Json.Obj("sizes" -> sizes, "untraced_events" -> half, "traced_events" -> half,
          "spans" -> tr.tracer.spans.size, "trace_file" -> args.tracePath.toString,
          "offline" -> offline.record),
        notes ++ a.firstError.map(_.toString) ++ offline.notes)
    }
  }
}
