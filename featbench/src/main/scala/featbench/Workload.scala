package featbench

/** One named number with its unit, as printed in the result line. */
final case class Metric(name: String, value: Double, unit: String)

/** What a workload hands back: operations attempted and failed (an
  * exception or a wrong answer), the end-to-end or per-layer metrics, and
  * the run record.
  */
final case class Result(attempted: Long, failed: Long, metrics: Seq[Metric], record: Json.Obj,
                        notes: Seq[String])

final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean,
                      outDir: java.nio.file.Path) {
  def tracePath: java.nio.file.Path =
    outDir.resolve("traces").resolve(s"$workload-seed$seed.jsonl")
}

trait Workload {
  def name: String
  def run(args: Args): Result
}

object Workload {
  /** Set-up repetitions per run; `setup_s` is their median. */
  val SetupReps = 11

  def ms(ns: Double): Double = ns / 1e6

  /** Times `reps` builds of the system from generated inputs, a full GC
    * before each so one build's garbage does not bill the next, and keeps
    * the last build.
    */
  def timedSetup[T](reps: Int)(build: => T): (T, Seq[Double]) = {
    var last: Option[T] = None
    val times = (0 until reps).map { _ =>
      last = None
      Jvm.retainedHeap()
      val t0 = System.nanoTime()
      last = Some(build)
      (System.nanoTime() - t0) / 1e9
    }
    (last.get, times)
  }
}
