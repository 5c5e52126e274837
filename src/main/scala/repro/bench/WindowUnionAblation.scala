package repro.bench

import repro.LocalGen
import repro.core.online.WindowUnionStream.{SelfAdjustingUnion, StaticUnion, ThreadedEngine}

/** §9.3.2 reproduction shape: multi-table window union throughput as the
  * window size grows — the Flink-style static engine (hash routing +
  * per-tuple window rescan) collapses with window size while the
  * self-adjusting engine (dynamic routing + subtract-and-evict) stays
  * flat. The paper reports ~1k tuples/s (static, 10k window) vs ~1M
  * tuples/s (OpenMLDB).
  */
object WindowUnionAblation {

  final case class UnionRow(windowSize: Long, staticTps: Double, selfAdjTps: Double) {
    def ratio: Double = selfAdjTps / staticTps
  }

  /** Timed runs per engine and window. */
  private val Reps = 5

  /** Throughput per window size, each the median of `Reps` timed runs
    * per engine. Both engines run once untimed first, and the timed runs
    * alternate which engine goes first, so neither is timed cold.
    */
  def run(nTuples: Int = 100000, nKeys: Int = 8,
          windows: Seq[Long] = Seq(1000L, 10000L, 50000L), nWorkers: Int = 4): Seq[UnionRow] = {
    val tuples = LocalGen.unionStream(nTuples, nKeys, alpha = 1.2, seed = 41)
    def tps(engine: ThreadedEngine): Double = {
      val t0 = System.nanoTime()
      engine.run(tuples)
      nTuples / ((System.nanoTime() - t0) / 1e9)
    }
    def median(xs: Seq[Double]): Double = { val s = xs.sorted; s(s.size / 2) }
    windows.map { w =>
      val engines = Seq[() => ThreadedEngine](
        () => new StaticUnion(nWorkers, w),
        () => new SelfAdjustingUnion(nWorkers, w, rebalanceEvery = 10000))
      engines.foreach(mk => tps(mk()))
      val timed = (0 until Reps).map { i =>
        val order = if (i % 2 == 0) engines.indices else engines.indices.reverse
        order.map(e => e -> tps(engines(e)())).toMap
      }
      UnionRow(w, median(timed.map(_(0))), median(timed.map(_(1))))
    }
  }

  def render(rows: Seq[UnionRow]): String = {
    val sb = new StringBuilder
    sb.append("Self-Adjusted Window Union (§9.3.2 shape): throughput vs window size\n")
    sb.append(f"${"window"}%8s ${"static(t/s)"}%14s ${"self-adj(t/s)"}%14s ${"ratio"}%8s\n")
    rows.foreach(r => sb.append(f"${r.windowSize}%8d ${r.staticTps}%14.0f ${r.selfAdjTps}%14.0f ${r.ratio}%7.1fx\n"))
    sb.append("paper: static ~1k tuples/s at 10k window; OpenMLDB ~1M tuples/s flat\n")
    sb.toString
  }
}
