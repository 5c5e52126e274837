package repro.bench

import scala.util.Random
import repro.core._
import repro.core.online.{OnlineTable, RequestEngine}

/** Table 3 reproduction: online request latency percentiles vs. feature
  * count. Schemas of 10/100/1000 value columns derive 20/210/2100 window
  * features (2 per column, plus one extra per 10 columns at >=100 cols,
  * matching the paper's 2.0x/2.1x ratios); latency is measured per
  * request over the online request engine.
  */
object Table3FeatureScaling {

  final case class LatRow(nCols: Int, nFeatures: Int,
                          tp50: Double, tp90: Double, tp95: Double, tp99: Double, tp999: Double)

  /** Paper Table 3 (TP latencies, ms). */
  val paper: Seq[(Int, Int, Double, Double, Double, Double, Double)] = Seq(
    (10, 20, 0.6, 0.8, 0.8, 1.0, 1.9),
    (100, 210, 2.0, 2.8, 2.5, 4.4, 6.6),
    (1000, 2100, 11.7, 14.7, 15.9, 19.8, 44.8),
  )

  private def specFor(nCols: Int): FeatureSpec = {
    val cols = (0 until nCols).map(i => s"c$i")
    val extras = if (nCols >= 100) cols.take(nCols / 10).map(c =>
      Feature(s"min_$c", FeatureFn.Min(c), "w")) else Nil
    FeatureSpec(
      primary = "t",
      windows = Seq(WindowDef("w", "k", "ts", 10000L)),
      features = cols.flatMap(c => Seq(
        Feature(s"sum_$c", FeatureFn.Sum(c), "w"),
        Feature(s"avg_$c", FeatureFn.Avg(c), "w"))) ++ extras)
  }

  private def percentile(sorted: Array[Double], p: Double): Double =
    sorted(math.min(sorted.length - 1, (p * sorted.length).toInt))

  /** @param rowsPerKey stored rows falling inside each request's window */
  def run(nRequests: Int = 2000, nKeys: Int = 50, rowsPerKey: Int = 50,
          colCounts: Seq[Int] = Seq(10, 100, 1000)): Seq[LatRow] = {
    colCounts.map { nCols =>
      val spec = specFor(nCols)
      val table = new OnlineTable("k", "ts")
      val eng = new RequestEngine(spec, Map("t" -> table))
      val rnd = new Random(31)
      def row(k: Int, ts: Long): Map[String, Any] =
        (0 until nCols).map(i => s"c$i" -> rnd.nextDouble()).toMap ++
          Map("k" -> s"u$k", "ts" -> ts)
      for (k <- 0 until nKeys; i <- 0 until rowsPerKey)
        eng.insert("t", row(k, 1000L + i * (9000L / rowsPerKey)))
      // warmup
      (0 until 200).foreach(i => eng.request(row(i % nKeys, 10000L)))
      // the widest schema costs ~20x per request; fewer samples suffice
      val nReq = if (nCols >= 1000) math.max(500, nRequests / 4) else nRequests
      val lat = new Array[Double](nReq)
      var i = 0
      while (i < nReq) {
        val r = row(i % nKeys, 10000L)
        val t0 = System.nanoTime()
        eng.request(r)
        lat(i) = (System.nanoTime() - t0) / 1e6
        i += 1
      }
      java.util.Arrays.sort(lat)
      val nFeat = spec.features.size
      LatRow(nCols, nFeat,
        percentile(lat, 0.50), percentile(lat, 0.90), percentile(lat, 0.95),
        percentile(lat, 0.99), percentile(lat, 0.999))
    }
  }

  def render(rows: Seq[LatRow]): String = {
    val sb = new StringBuilder
    sb.append("Table 3: Performance for Different Feature Numbers (latency ms)\n")
    sb.append(f"${"#-Column"}%9s ${"#-Feature"}%10s ${"TP50"}%8s ${"TP90"}%8s ${"TP95"}%8s ${"TP99"}%8s ${"TP999"}%8s\n")
    rows.foreach { r =>
      sb.append(f"${r.nCols}%9d ${r.nFeatures}%10d ${r.tp50}%8.2f ${r.tp90}%8.2f ${r.tp95}%8.2f ${r.tp99}%8.2f ${r.tp999}%8.2f\n")
    }
    sb.append("paper:\n")
    paper.foreach { case (c, f, a, b, d, e, g) =>
      sb.append(f"$c%9d $f%10d $a%8.2f $b%8.2f $d%8.2f $e%8.2f $g%8.2f\n")
    }
    sb.toString
  }
}
