package featbench

import java.nio.file.{Files, Paths}

/** Benchmark entry point: one seeded workload per JVM.
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>
  * Main --self-test
  * }}}
  * With `--trace 0` the result line carries the end-to-end metrics; with
  * `--trace 1`, the per-layer ones (0 for a layer the workload never
  * calls). The last line of standard output is the result JSON.
  */
object Main {
  val workloads: Seq[Workload] = Seq(RequestWide, RequestMixed, OfflineBatch, UnionStream)

  val endToEnd: Seq[(String, String)] = Seq(
    "setup_s" -> "s", "p50_ms" -> "ms", "throughput_per_s" -> "1/s", "heap_bytes_per_row" -> "B")

  val perLayer: Seq[(String, String)] = Seq(
    "storage.scan_us" -> "us", "storage.rows_per_scan" -> "rows", "storage.latest_us" -> "us",
    "storage.put_us" -> "us", "preagg.query_us" -> "us", "preagg.buckets_per_query" -> "count",
    "preagg.raw_rows_per_query" -> "rows", "preagg.insert_us" -> "us", "preagg.bucket_count" -> "count",
    "functions.fold_ns_per_row" -> "ns", "online.request_us" -> "us", "online.request_self_us" -> "us",
    "jvm.alloc_bytes_per_request" -> "B", "jvm.gc_pause_ms" -> "ms", "trace.overhead_ms" -> "ms",
    "offline.plan_build_ms" -> "ms", "offline.exchanges" -> "count", "offline.sorts" -> "count",
    "offline.window_ops" -> "count", "offline.stages" -> "count", "offline.shuffle_write_bytes" -> "B",
    "offline.spill_bytes" -> "B", "offline.executor_run_s" -> "s", "offline.task_skew" -> "ratio",
    "union.rebalances" -> "count")

  private def usage(msg: String): Nothing = {
    Console.err.println(s"featbench: $msg")
    Console.err.println("usage: --workload <" + workloads.map(_.name).mkString("|") +
      "> --seed <n> --seconds <s> --trace <0|1> --out <dir>  |  --self-test")
    sys.exit(2)
  }

  /** Machine-wide (total, steal) CPU ticks from /proc/stat, or None where it
    * does not exist. Steal is time a virtual machine's CPUs were runnable
    * but not running; the record keeps its share of the run, since it slows
    * every timed figure.
    */
  private def hostCpu(): Option[(Long, Long)] =
    try {
      val src = scala.io.Source.fromFile("/proc/stat")
      val ticks = try src.getLines().next().split("\\s+").drop(1).map(_.toLong) finally src.close()
      Some((ticks.sum, if (ticks.length > 7) ticks(7) else 0L))
    } catch { case _: Exception => None }

  def main(argv: Array[String]): Unit = {
    if (argv.sameElements(Array("--self-test"))) sys.exit(if (SelfTest.run()) 0 else 1)
    val opts = argv.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => usage(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def opt(k: String) = opts.getOrElse(k, usage(s"missing --$k"))
    val workload = workloads.find(_.name == opt("workload")).getOrElse(usage(s"unknown workload ${opt("workload")}"))
    val args = Args(workload.name, opt("seed").toLong, opt("seconds").toInt, opt("trace") match {
      case "0" => false; case "1" => true; case t => usage(s"--trace must be 0 or 1, not $t")
    }, Paths.get(opt("out")).toAbsolutePath)
    if (args.seconds < 1) usage("--seconds must be at least 1")

    val t0 = System.nanoTime()
    val cpu0 = hostCpu()
    val r = workload.run(args)
    val cpu1 = hostCpu()
    val wanted = if (args.trace) perLayer else endToEnd
    val got = r.metrics.map(m => m.name -> m).toMap
    val metrics = wanted.map { case (n, unit) => got.getOrElse(n, Metric(n, 0.0, unit)) }
    require(got.keySet.subsetOf(wanted.map(_._1).toSet), s"unlisted metrics: ${got.keySet -- wanted.map(_._1)}")
    val correct = r.failed == 0

    metrics.foreach(m => println(f"${m.name}%-30s ${m.value}%16.6f ${m.unit}"))
    r.notes.foreach(n => println(s"mismatch: $n"))
    val record = Json.Obj(
      "workload" -> args.workload, "seed" -> args.seed, "seconds" -> args.seconds, "trace" -> args.trace,
      "git_sha" -> sys.props.getOrElse("featbench.gitSha", "unknown"),
      "nproc" -> Runtime.getRuntime.availableProcessors(), "max_heap_bytes" -> Jvm.maxHeap,
      "jvm_flags" -> Jvm.flags, "java_version" -> sys.props("java.version"),
      "run_wall_s" -> (System.nanoTime() - t0) / 1e9,
      "host_steal_share" -> cpu0.zip(cpu1).map { case ((tot0, st0), (tot1, st1)) =>
        (st1 - st0).toDouble / math.max(1L, tot1 - tot0) }.orNull,
      "attempted" -> r.attempted, "failed" -> r.failed, "notes" -> r.notes,
      "metrics" -> metrics.map(m => Json.Obj("name" -> m.name, "value" -> m.value, "unit" -> m.unit)),
      "workload_record" -> r.record)
    val recordPath = args.outDir.resolve("runs").resolve(s"${args.workload}-seed${args.seed}-trace${if (args.trace) 1 else 0}.json")
    Files.createDirectories(recordPath.getParent)
    Files.writeString(recordPath, record.render + "\n")
    println("record: " + record.render)
    println(Json.Obj("correct" -> correct, "attempted" -> r.attempted, "failed" -> r.failed,
      "metrics" -> Json.Obj(metrics.map(m => m.name -> Json.Obj("value" -> m.value, "unit" -> m.unit)): _*)).render)
    Console.out.flush()
    // Spark and engine threads may linger; the result is out.
    sys.exit(0)
  }
}
