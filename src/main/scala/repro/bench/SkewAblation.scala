package repro.bench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.SynthData
import repro.core.offline.SkewResolver

/** Figure 13 reproduction shape: time-windowed aggregation over a heavily
  * skewed key distribution; naive per-key windowing (one straggler task
  * owns the hot key) vs. the §6.2 time-aware repartitioning at skew
  * factors 2 and 4.
  */
object SkewAblation {

  final case class SkewRow(variant: String, seconds: Double)

  private def aggs = Seq(("s", sum(col("v"))), ("c", count(lit(1))), ("mx", max(col("v"))))

  private def time(f: => Unit): Double = {
    val t0 = System.nanoTime(); f; (System.nanoTime() - t0) / 1e9
  }

  def run(spark: SparkSession, rows: Long = 400000L, windowMs: Long = 20000L): Seq[SkewRow] = {
    // zipf(2.2) over 4 keys: the top key owns the vast majority of rows
    val df = SynthData.zipfKeys(spark, rows, nKeys = 4, alpha = 2.2, seed = 33)
      .withColumn("ts", (rand(34) * 200000).cast("long"))
      .select(col("k"), col("ts"), col("v"))
      .persist()
    df.count()
    def drain(out: DataFrame): Unit = out.foreach(_ => ())
    val naive = time(drain(SkewResolver.naive(df, "k", "ts", windowMs, aggs)))
    val skew2 = time(drain(SkewResolver.optimized(df, "k", "ts", windowMs, aggs, 2)))
    val skew4 = time(drain(SkewResolver.optimized(df, "k", "ts", windowMs, aggs, 4)))
    df.unpersist()
    Seq(SkewRow("naive (Spark-style)", naive), SkewRow("skew 2", skew2), SkewRow("skew 4", skew4))
  }

  def render(rows: Seq[SkewRow]): String = {
    val sb = new StringBuilder
    sb.append("Time-Aware Data Skew Resolving (Fig 13 shape)\n")
    rows.foreach(r => sb.append(f"${r.variant}%22s ${r.seconds}%8.2f s\n"))
    val base = rows.head.seconds
    rows.drop(1).foreach(r => sb.append(f"  speedup ${r.variant}: ${base / r.seconds}%.2fx\n"))
    sb.append("paper: skew opt up to 10.1x over Spark, >2x over no-skew-opt\n")
    sb.toString
  }
}
