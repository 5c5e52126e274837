package featbench

import org.apache.spark.featbench.ListenerBus
import org.apache.spark.scheduler._
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.execution.SparkPlan
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.functions._
import scala.collection.mutable
import repro.core.UnifiedPlanner

/** `offline-batch`: `UnifiedPlanner.offline` on Spark `local[k]` over the
  * `request-mixed` tables, with one extra window keyed by the skewed
  * 5-value `category`. Each batch computes the whole feature table and
  * materialises it to a checksum. No online layer runs.
  *
  * `BENCHMARK.json` does not list this workload: its batch time follows
  * the host's CPU steal too closely to repeat within a bound (see the
  * README). It runs by hand, and its traced variant runs inside the
  * traced `request-mixed` run, which reports the `offline.*` metrics.
  */
object OfflineBatch extends Workload {
  val name = "offline-batch"
  val Users = 2000
  /** Input rows per unit of `--seconds`. Most of a batch's time is fixed
    * cost, so the run's length comes from the batch counts, not the rows.
    */
  val RowsPerUnit = 400
  val TimedBatches = 5

  def cores: Int = math.max(1, math.min(4, Runtime.getRuntime.availableProcessors()))

  private def startSpark(args: Args): SparkSession =
    SparkSession.builder
      .master(s"local[$cores]")
      .appName("featbench")
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      // One shuffle partition per core, never coalesced: on this small input
      // coalescing folds every window into one serial task, whose time
      // swung by a third between JVMs and which hides the key skew.
      .config("spark.sql.shuffle.partitions", cores)
      .config("spark.sql.adaptive.coalescePartitions.enabled", false)
      .config("spark.local.dir", args.outDir.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", args.outDir.resolve("spark-warehouse").toString)
      .getOrCreate()

  private def inputs(spark: SparkSession, d: MixedData.Data): Map[String, DataFrame] = {
    val t = Map(
      "actions" -> spark.createDataFrame(d.actions).cache(),
      "orders" -> spark.createDataFrame(d.orders).cache(),
      "profile" -> spark.createDataFrame(d.profiles).cache())
    t.values.foreach(_.count())
    t
  }

  /** Per-stage task metrics from the listener bus. */
  private final class StageProbe extends SparkListener {
    val stages = mutable.ArrayBuffer.empty[StageInfo]
    val taskMs = mutable.HashMap.empty[Int, mutable.ArrayBuffer[Long]]
    override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized { stages += e.stageInfo }
    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
      taskMs.getOrElseUpdate(e.stageId, mutable.ArrayBuffer.empty) += e.taskInfo.duration
    }
  }

  private object Plans extends AdaptiveSparkPlanHelper {
    def count(p: SparkPlan, node: String): Int = collect(p) { case n if n.nodeName == node => n }.size
  }

  /** Batches whose (checksum, row count) differs from the first batch's,
    * or whose row count is not one output row per primary row.
    */
  def checksumFailures(checksums: Seq[(Long, Long)], expectedRows: Long): Int =
    checksums.count(c => c != checksums.head || c._2 != expectedRows)

  def run(args: Args): Result = {
    val rows = RowsPerUnit * args.seconds
    val data = MixedData.generate(args.seed, Users, rows, 0)
    val spec = MixedData.offlineSpec
    val nOut = data.actions.size

    var spark: SparkSession = null
    var tables: Map[String, DataFrame] = null
    val setupTimes = (0 until (if (args.trace) 1 else 3)).map { _ =>
      if (spark != null) { tables.values.foreach(_.unpersist(true)); spark.stop() }
      Jvm.retainedHeap()
      val t0 = System.nanoTime()
      spark = startSpark(args)
      tables = inputs(spark, data)
      (System.nanoTime() - t0) / 1e9
    }
    // Bytes Spark's block manager holds for the cached inputs, per row.
    val heapPerRow = spark.sparkContext.getRDDStorageInfo.map(_.memSize).sum.toDouble / data.storedRows

    def features(): DataFrame = UnifiedPlanner.offline(spark, tables, spec)
    def checksumOf(out: DataFrame): DataFrame =
      out.agg(bit_xor(xxhash64(out.columns.map(col).toIndexedSeq: _*)), count(lit(1)))
    def batch(): (Long, Long) = { val r = checksumOf(features()).head(); (r.getLong(0), r.getLong(1)) }

    val checksums = mutable.ArrayBuffer.empty[(Long, Long)]
    var errors = 0L
    var firstError: Option[Throwable] = None
    def guarded(body: => Unit): Unit =
      try body catch { case e: Throwable => errors += 1; if (firstError.isEmpty) firstError = Some(e) }

    // The seeded sample of output rows checked against the brute-force fold.
    val sample = {
      val r = new scala.util.Random(args.seed ^ 0x0ff1L)
      r.shuffle(data.actions.indices.toVector).take(60).map(data.actions)
    }
    def checkSample(): (Int, Seq[String]) = {
      val ref = new MixedData.Ref(data.actions, data.orders, data.profiles)
      val got = features().filter(col("ts").isin(sample.map(_.ts): _*)).collect()
        .map(r => r.getAs[Long]("ts") -> r.getValuesMap[Any](r.schema.fieldNames.toIndexedSeq)).toMap
      val bad = sample.flatMap { a =>
        got.get(a.ts) match {
          case None => Some(s"row ts=${a.ts} missing from the output")
          case Some(row) =>
            val diff = Reference.mismatches(ref.expected(spec, a), k => row.getOrElse(k, null))
            if (diff.isEmpty) None else Some(s"row ts=${a.ts}: ${diff.take(3).mkString("; ")}")
        }
      }
      (bad.size, bad.take(5))
    }
    def checksumFailures: Int = OfflineBatch.checksumFailures(checksums.toSeq, nOut)

    // The sample check is the first job, untimed; warm-up follows it.
    val (bad, notes) = checkSample()
    val (minWarm, maxWarm) = if (args.trace) (3, 5) else (6, 9)
    val warm = Stats.warmUntilSteady(minWarm, maxWarm)(_ => guarded(checksums += batch()))
    Jvm.retainedHeap()

    val sizes = Json.Obj("users" -> Users, "zipf" -> 1.1, "input_rows" -> data.storedRows,
      "output_rows" -> nOut, "features" -> spec.features.size, "spark_master" -> s"local[$cores]",
      "shuffle_partitions" -> cores, "warmup_batches" -> warm.size)

    val result = if (!args.trace) {
      val gc0 = Jvm.gcMillis()
      val times = (0 until TimedBatches).map { _ =>
        val t0 = System.nanoTime()
        guarded(checksums += batch())
        (System.nanoTime() - t0) / 1e9
      }
      val gcMs = Jvm.gcMillis() - gc0
      val p50 = Stats.median(times)
      Result(TimedBatches, math.min(TimedBatches.toLong, errors + bad + checksumFailures), Seq(
        Metric("setup_s", Stats.median(setupTimes), "s"),
        Metric("p50_ms", p50 * 1e3, "ms"),
        Metric("throughput_per_s", nOut / p50, "1/s"),
        Metric("heap_bytes_per_row", heapPerRow, "B")),
        Json.Obj("sizes" -> sizes, "warmup_batch_s" -> warm, "batch_s" -> times,
          "batch_samples" -> times.size, "setup_s" -> setupTimes, "gc_ms" -> gcMs,
          "checksums" -> checksums.map(c => s"${c._1}/${c._2}").distinct, "checked_rows" -> sample.size),
        notes ++ firstError.map(_.toString))
    } else {
      val probe = new StageProbe
      spark.sparkContext.addSparkListener(probe)
      val tracer = new Tracer
      val gc0 = Jvm.gcMillis()
      var planMs = 0.0
      var executed: SparkPlan = null
      tracer.span("offline.batch", -1, 0) { id =>
        val q = tracer.span("offline.plan", id, 0) { _ =>
          val t0 = System.nanoTime()
          val q = checksumOf(features())
          q.queryExecution.executedPlan
          planMs = (System.nanoTime() - t0) / 1e6
          q
        }
        tracer.span("offline.execute", id, 0) { _ =>
          guarded { val r = q.head(); checksums += ((r.getLong(0), r.getLong(1))) }
        }
        executed = q.queryExecution.executedPlan
      }
      val gcMs = Jvm.gcMillis() - gc0
      ListenerBus.drain(spark.sparkContext)
      val stages = probe.synchronized(probe.stages.toList)
      tracer.write(args.tracePath)
      val metrics = stages.flatMap(s => Option(s.taskMetrics))
      val slowest = stages.maxByOption(s => s.completionTime.getOrElse(0L) - s.submissionTime.getOrElse(0L))
      val skew = slowest.flatMap(s => probe.synchronized(probe.taskMs.get(s.stageId)))
        .filter(_.nonEmpty).map(t => t.max / math.max(1.0, Stats.median(t.map(_.toDouble).toSeq)))
        .getOrElse(0.0)
      Result(1, math.min(1L, errors + bad + checksumFailures), Seq(
        Metric("offline.plan_build_ms", planMs, "ms"),
        Metric("offline.exchanges", Plans.count(executed, "Exchange").toDouble, "count"),
        Metric("offline.sorts", Plans.count(executed, "Sort").toDouble, "count"),
        Metric("offline.window_ops", Plans.count(executed, "Window").toDouble, "count"),
        Metric("offline.stages", stages.size.toDouble, "count"),
        Metric("offline.shuffle_write_bytes", metrics.map(_.shuffleWriteMetrics.bytesWritten).sum.toDouble, "B"),
        Metric("offline.spill_bytes", metrics.map(m => m.memoryBytesSpilled + m.diskBytesSpilled).sum.toDouble, "B"),
        Metric("offline.executor_run_s", metrics.map(_.executorRunTime).sum / 1e3, "s"),
        Metric("offline.task_skew", skew, "ratio"),
        Metric("jvm.gc_pause_ms", gcMs.toDouble, "ms")),
        Json.Obj("sizes" -> sizes, "batch_ms" -> tracer.meanUs("offline.batch") / 1e3,
          "stages" -> stages.map(st => Json.Obj("id" -> st.stageId, "tasks" -> st.numTasks,
            "wall_ms" -> (st.completionTime.getOrElse(0L) - st.submissionTime.getOrElse(0L)),
            "run_ms" -> Option(st.taskMetrics).map(_.executorRunTime).getOrElse(0L))),
          "spans" -> tracer.spans.size, "trace_file" -> args.tracePath.toString),
        notes ++ firstError.map(_.toString))
    }
    spark.stop()
    result
  }
}
