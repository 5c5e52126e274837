package featbench

import repro.LocalGen
import repro.core.online.WindowUnionStream.SelfAdjustingUnion

/** `union-stream`: `SelfAdjustingUnion.run` over a zipf-keyed stream from
  * three tables (`LocalGen.unionStream`), answering every tuple with its
  * key's 10 s running window sum across all tables. The only workload
  * that runs `WindowUnionStream`.
  */
object UnionStream extends Workload {
  val name = "union-stream"
  val Keys = 10000
  val WindowMs = 10000L
  val TimedRuns = 11
  val Zipf = 1.2

  /** Workers plus the feeding thread stay within the cores, leaving one
    * for the collector and the JIT.
    */
  def workers: Int = math.max(1, math.min(2, Runtime.getRuntime.availableProcessors() - 2))

  def run(args: Args): Result = {
    val n = 100000 * args.seconds
    val stream = LocalGen.unionStream(n, Keys, 3, Zipf, args.seed)
    val prefix = stream.take(n / 5)
    val expected = Reference.unionSums(stream.map(_.key).toArray, stream.map(_.ts).toArray,
      stream.map(_.value).toArray, WindowMs)

    // Set-up is engine construction. It takes well under a microsecond, so
    // it is timed in groups of 100 after a JIT warm-up, and the median group
    // is reported per construction. The engines are kept in an array so the
    // compiler cannot drop the allocations.
    val built = new Array[SelfAdjustingUnion](100)
    def group(): Unit = { var k = 0; while (k < built.length) { built(k) = new SelfAdjustingUnion(workers, WindowMs); k += 1 } }
    (0 until 200).foreach(_ => group())
    Jvm.retainedHeap()
    val setupTimes = (0 until 201).map { _ =>
      val t0 = System.nanoTime()
      group()
      (System.nanoTime() - t0) / 1e9 / built.length
    }
    java.util.Arrays.fill(built.asInstanceOf[Array[AnyRef]], null)

    var errors = 0L
    var firstError: Option[Throwable] = None
    var mismatched = 0L
    val notes = scala.collection.mutable.ArrayBuffer.empty[String]
    val warm = Stats.warmUntilSteady(3, 8)(_ => new SelfAdjustingUnion(workers, WindowMs).run(prefix))
    val tracer = new Tracer
    var rebalances = 0
    var heapPerTuple = 0.0
    val gc0 = { Jvm.retainedHeap(); Jvm.gcMillis() }
    val times = (0 until TimedRuns).map { i =>
      val heap0 = if (i == TimedRuns - 1) Jvm.retainedHeap() else 0L
      val engine = new SelfAdjustingUnion(workers, WindowMs)
      val t0 = System.nanoTime()
      var got: Array[Double] = try {
        if (args.trace) tracer.span("union.run", -1, i)(_ => engine.run(stream)) else engine.run(stream)
      } catch { case e: Throwable => errors += 1; if (firstError.isEmpty) firstError = Some(e); null }
      val dt = (System.nanoTime() - t0) / 1e9
      if (got != null) {
        val bad = Reference.unionMismatches(expected, got)
        mismatched += bad.size
        bad.take(3).foreach(j => notes += s"run $i tuple $j: expected ${expected(j)}, got ${got(j)}")
      }
      got = null
      rebalances = engine.rebalances
      if (i == TimedRuns - 1) heapPerTuple = (Jvm.retainedHeap() - heap0).toDouble / n
      java.lang.ref.Reference.reachabilityFence(engine)
      dt
    }
    val gcMs = Jvm.gcMillis() - gc0
    val attempted = n.toLong * TimedRuns
    val failed = math.min(attempted, errors * n + mismatched)
    val p50 = Stats.median(times)
    val metrics =
      if (!args.trace) Seq(
        Metric("setup_s", Stats.median(setupTimes), "s"),
        Metric("p50_ms", p50 * 1e3, "ms"),
        Metric("throughput_per_s", n / p50, "1/s"),
        Metric("heap_bytes_per_row", heapPerTuple, "B"))
      else {
        tracer.write(args.tracePath)
        Seq(Metric("union.rebalances", rebalances.toDouble, "count"),
          Metric("jvm.gc_pause_ms", gcMs.toDouble, "ms"))
      }
    Result(attempted, failed, metrics,
      Json.Obj("sizes" -> Json.Obj("tuples" -> n, "keys" -> Keys, "tables" -> 3, "zipf" -> Zipf,
        "window_ms" -> WindowMs, "workers" -> workers, "warmup_tuples" -> prefix.size),
        "warmup_run_s" -> warm, "run_s" -> times, "run_samples" -> times.size,
        "setup_samples" -> setupTimes.size, "setup_constructions_per_sample" -> built.length, "gc_ms" -> gcMs, "rebalances" -> rebalances),
      notes.toSeq ++ firstError.map(_.toString))
  }
}
