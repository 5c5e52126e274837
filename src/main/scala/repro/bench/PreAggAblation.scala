package repro.bench

import scala.util.Random
import repro.core._
import repro.core.online.{OnlineTable, PartialAcc, PreAggTable, RequestEngine}

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

  /** Median latency of `reps` requests, after `warm` untimed ones. */
  private def medianLatencyMs(eng: RequestEngine, warm: Int, reps: Int, ts: Long): Double = {
    val req = Map[String, Any]("k" -> "hot", "ts" -> ts, "v" -> 1.0)
    (0 until warm).foreach(_ => eng.request(req))
    val lat = (0 until reps).map { _ =>
      val t0 = System.nanoTime()
      eng.request(req)
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

  /** Each engine serves `warm` requests before `reps` timed ones. */
  def run(sizes: Seq[Int] = Seq(100000, 500000, 1000000, 2000000), reps: Int = 101, warm: Int = 200): Seq[AblRow] = {
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
      AblRow(n, medianLatencyMs(rawEng, warm, reps, ts), medianLatencyMs(paEng, warm, reps, ts), bytes, buckets)
    }
  }

  /** One point of the sweep below: the median time of one 30-day query
    * over a key holding `rows` rows, answered from `buckets` buckets plus
    * raw edges, and by a fold of the key's rows.
    */
  final case class SweepRow(rows: Int, bucketNs: Double, rawNs: Double, buckets: Int) {
    def ratio: Double = bucketNs / rawNs
  }

  private val Day = 86400000L
  private val SweepLevels = Seq(60000L, 3600000L, Day)

  /** Where pre-aggregation starts to pay for a key (the row count at which
    * a bound [[PreAggTable]] builds its buckets): one key with `k` rows
    * spread evenly over a 30-day window, in a table and in a pre-aggregation
    * at minute/hour/day levels that records every row. A 30-day query is
    * timed as `queryRows` over those buckets, and as `queryRows` over a key
    * with no buckets, which folds the key's stored rows whole, as a lazy
    * key below the threshold does. Each sample is the mean of `batch`
    * queries; the median of `reps` samples after `warm` untimed ones.
    */
  def sweep(sizes: Seq[Int] = (0 to 8).map(1 << _), reps: Int = 101, warm: Int = 200,
            batch: Int = 1000): Seq[SweepRow] = {
    val hi = 100 * Day
    val lo = hi - 30 * Day
    sizes.map { k =>
      val rnd = new Random(k)
      val table = new OnlineTable("k", "ts")
      val eager = new PreAggTable(SweepLevels)
      (0 until k).foreach { i =>
        val ts = lo + (2L * i + 1) * (hi - lo) / (2L * k)
        val v = rnd.nextDouble()
        table.put(Map("k" -> "key", "ts" -> ts, "v" -> v))
        eager.insert("key", ts, v)
      }
      val s = table.series("key")
      val col = table.column("v")
      val fold: (Long, Long, PartialAcc) => Unit = (l, h, acc) => {
        val it = s.scan(l, h)
        while (it.hasNext) {
          val row = it.next().payload
          val f = col.field(row)
          if (f == null || f.isNull(row)) acc.addNull() else acc.add(f.double(row))
        }
      }
      var sink = 0L
      def medianNs(pa: PreAggTable): Double = {
        def sample(): Double = {
          val t0 = System.nanoTime()
          var i = 0
          while (i < batch) { sink += pa.queryRows("key", lo, hi, fold).rows; i += 1 }
          (System.nanoTime() - t0).toDouble / batch
        }
        (0 until warm).foreach(_ => sample())
        val xs = Array.fill(reps)(sample()).sorted
        xs(reps / 2)
      }
      val none = new PreAggTable(SweepLevels)
      val rawNs = medianNs(none)
      val bucketNs = medianNs(eager)
      eager.queryRows("key", lo, hi, fold)
      require(sink == 2L * (warm + reps) * batch * k, s"queries at $k rows counted $sink rows")
      SweepRow(k, bucketNs, rawNs, eager.lastQueryBuckets)
    }
  }

  def renderSweep(rows: Seq[SweepRow]): String = {
    val sb = new StringBuilder
    sb.append("Pre-aggregation threshold sweep: one key, rows spread over a 30-day window, levels 1min/1h/1d\n")
    sb.append(f"${"rows"}%6s ${"buckets(ns)"}%12s ${"raw-fold(ns)"}%13s ${"buckets/raw"}%12s ${"merged"}%7s\n")
    rows.foreach(r => sb.append(f"${r.rows}%6d ${r.bucketNs}%12.1f ${r.rawNs}%13.1f ${r.ratio}%12.2f ${r.buckets}%7d\n"))
    sb.toString
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
