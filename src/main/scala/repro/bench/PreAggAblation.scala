package repro.bench

import scala.util.Random
import repro.core._
import repro.core.online.{OnlineTable, PreAggTable, RequestEngine}

/** Figures 10/11 reproduction shape: long-window request latency with and
  * without pre-aggregation as the tuple count inside the window grows.
  * Without pre-agg the engine re-scans every raw tuple per request
  * (latency grows linearly); with the aggregator hierarchy it merges a
  * handful of bucket partials (latency ~flat). The paper's 860k-tuple
  * ablation saw 300ms -> 6ms (45x).
  */
object PreAggAblation {

  /** `preAggBytes` is the settled heap a [[PreAggTable]] of the window's
    * rows retains, built alone before either engine; `buckets` is its
    * bucket count over all levels.
    */
  final case class AblRow(windowTuples: Int, rawMs: Double, preAggMs: Double, preAggBytes: Long, buckets: Long) {
    def speedup: Double = rawMs / preAggMs
  }

  private val Levels = Seq(1000L, 60000L, 3600000L)

  private def spec = FeatureSpec(
    primary = "t",
    windows = Seq(WindowDef("w", "k", "ts", Long.MaxValue / 4)),
    features = Seq(
      Feature("s", FeatureFn.Sum("v"), "w"),
      Feature("a", FeatureFn.Avg("v"), "w"),
      Feature("mx", FeatureFn.Max("v"), "w")))

  private def medianLatencyMs(eng: RequestEngine, reps: Int, ts: Long): Double = {
    val lat = (0 until reps).map { _ =>
      val t0 = System.nanoTime()
      eng.request(Map("k" -> "hot", "ts" -> ts, "v" -> 1.0))
      (System.nanoTime() - t0) / 1e6
    }.sorted
    lat(reps / 2)
  }

  /** Settled heap and bucket count of a [[PreAggTable]] holding `n` rows,
    * one per ms, as the engines below hold. A throw-away build first loads
    * the classes the measured one would otherwise count.
    */
  private def retained(n: Int): (Long, Long) = {
    def build(): PreAggTable = {
      val pa = new PreAggTable(Levels)
      (0 until n).foreach(i => pa.insert("hot", i.toLong, 1.0))
      pa
    }
    build()
    val heap0 = Table2Memory.settledHeap()
    val pa = build()
    (Table2Memory.settledHeap() - heap0, pa.bucketCount)
  }

  def run(sizes: Seq[Int] = Seq(100000, 500000, 1000000, 2000000), reps: Int = 9): Seq[AblRow] = {
    sizes.map { n =>
      val (bytes, buckets) = retained(n)
      val rnd = new Random(23)
      val rawTable = new OnlineTable("k", "ts")
      val rawEng = new RequestEngine(spec, Map("t" -> rawTable))
      val paTable = new OnlineTable("k", "ts")
      val pa = new PreAggTable(Levels)
      val paEng = new RequestEngine(spec, Map("t" -> paTable), Map(("w", "v") -> pa))
      (0 until n).foreach { i =>
        val row = Map[String, Any]("k" -> "hot", "ts" -> i.toLong, "v" -> rnd.nextDouble())
        rawEng.insert("t", row); paEng.insert("t", row)
      }
      val ts = n.toLong
      AblRow(n, medianLatencyMs(rawEng, reps, ts), medianLatencyMs(paEng, reps, ts), bytes, buckets)
    }
  }

  def render(rows: Seq[AblRow]): String = {
    val sb = new StringBuilder
    sb.append("Long-Window Pre-Aggregation ablation (Fig 10/11 shape)\n")
    sb.append(f"${"#-window-tuples"}%16s ${"raw-scan(ms)"}%14s ${"pre-agg(ms)"}%13s ${"speedup"}%9s " +
      f"${"pre-agg-bytes"}%14s ${"buckets"}%8s ${"B/bucket"}%9s ${"B/row"}%7s\n")
    rows.foreach(r => sb.append(f"${r.windowTuples}%16d ${r.rawMs}%14.2f ${r.preAggMs}%13.3f ${r.speedup}%8.1fx " +
      f"${r.preAggBytes}%14d ${r.buckets}%8d ${r.preAggBytes.toDouble / r.buckets}%9.1f " +
      f"${r.preAggBytes.toDouble / r.windowTuples}%7.3f\n"))
    sb.append("paper (860k tuples): 300ms -> 6ms, 45x\n")
    sb.toString
  }
}
