package repro.core.offline

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, SynthData}

class SkewResolverSpec extends SparkSpec {
  private def aggs = Seq(
    ("w_sum", sum(col("v"))),
    ("w_cnt", count(lit(1))),
  )

  private lazy val skewed = {
    // one dominant key (zipf) with timestamps spread over a range
    import spark.implicits._
    SynthData.zipfKeys(spark, rows = 4000, nKeys = 5, alpha = 1.6, seed = 9)
      .withColumn("ts", (rand(10) * 100000).cast("long"))
      .select($"k", $"ts", $"v")
  }

  private def canon(df: org.apache.spark.sql.DataFrame): Seq[String] =
    df.collect().map(r => f"${r.getLong(0)}|${r.getLong(1)}|${r.getDouble(2)}%.6f|${r.getLong(3)}")
      .sorted.toSeq

  test("skew-optimized results equal the naive plan (nParts=2)") {
    val n = SkewResolver.naive(skewed, "k", "ts", 5000L, aggs).select("k", "ts", "w_sum", "w_cnt")
    val o = SkewResolver.optimized(skewed, "k", "ts", 5000L, aggs, 2).select("k", "ts", "w_sum", "w_cnt")
    assert(canon(o) == canon(n))
  }

  test("skew-optimized results equal the naive plan (nParts=4)") {
    val n = SkewResolver.naive(skewed, "k", "ts", 5000L, aggs).select("k", "ts", "w_sum", "w_cnt")
    val o = SkewResolver.optimized(skewed, "k", "ts", 5000L, aggs, 4).select("k", "ts", "w_sum", "w_cnt")
    assert(canon(o) == canon(n))
  }

  test("window wider than a partition range still gets full context (nParts=8)") {
    // window 50000 over a 100000 span with 8 ranges: frames cross several
    // partition boundaries, exercising multi-range EXPANDED_ROW copies
    val n = SkewResolver.naive(skewed, "k", "ts", 50000L, aggs).select("k", "ts", "w_sum", "w_cnt")
    val o = SkewResolver.optimized(skewed, "k", "ts", 50000L, aggs, 8).select("k", "ts", "w_sum", "w_cnt")
    assert(canon(o) == canon(n))
  }

  test("nParts=1 degenerates to the naive plan") {
    val n = SkewResolver.naive(skewed, "k", "ts", 5000L, aggs)
    val o = SkewResolver.optimized(skewed, "k", "ts", 5000L, aggs, 1)
    assert(canon(o.select("k", "ts", "w_sum", "w_cnt")) == canon(n.select("k", "ts", "w_sum", "w_cnt")))
  }

  test("row count is preserved: expanded rows are filtered out") {
    val o = SkewResolver.optimized(skewed, "k", "ts", 5000L, aggs, 4)
    assert(o.count() == skewed.count())
    assert(!o.columns.contains("__part_id") && !o.columns.contains("__expanded"))
  }

  test("optimized plan agrees with DuckDB on a small dataset") {
    import spark.implicits._
    val small = Seq(
      (1L, 10L, 1.0), (1L, 20L, 2.0), (1L, 30L, 4.0), (1L, 40L, 8.0),
      (2L, 15L, 16.0), (2L, 35L, 32.0),
    ).toDF("k", "ts", "v")
    val o = SkewResolver.optimized(small, "k", "ts", 15L, Seq(("s", sum(col("v")))), 2)
      .select("k", "ts", "s")
    Oracle.assertEquivalent(o,
      """SELECT t.k, t.ts, (SELECT SUM(CAST(u.v AS DOUBLE)) FROM tbl u
        |  WHERE u.k = t.k AND CAST(u.ts AS BIGINT)
        |    BETWEEN CAST(t.ts AS BIGINT) - 15 AND CAST(t.ts AS BIGINT)) AS s
        |FROM tbl t""".stripMargin,
      "tbl" -> small)
  }

  test("optimized parallelism: more than |keys| partitions carry data") {
    import org.apache.spark.sql.Row
    val ts = col("ts").cast("long")
    val probs = Array(0.25, 0.5, 0.75)
    val bounds = skewed.stat.approxQuantile("ts", probs, 0.001).map(_.toLong)
    // after repartition by (k, part_id), the number of distinct (k, part)
    // groups exceeds the number of distinct keys — the paper's point that
    // parallelism rises from |keys| to |keys| x n
    val partId = bounds.zipWithIndex.foldRight(lit(bounds.length): org.apache.spark.sql.Column) {
      case ((b, i), rest) => when(ts <= b, lit(i)).otherwise(rest)
    }
    val groups = skewed.withColumn("pid", partId).select("k", "pid").distinct().count()
    val keys = skewed.select("k").distinct().count()
    assert(groups > keys)
  }

  test("duplicate timestamps within a key do not double-count") {
    import spark.implicits._
    val dup = Seq((1L, 10L, 1.0), (1L, 10L, 2.0), (1L, 25L, 4.0)).toDF("k", "ts", "v")
    val n = SkewResolver.naive(dup, "k", "ts", 15L, aggs).select("k", "ts", "w_sum", "w_cnt")
    val o = SkewResolver.optimized(dup, "k", "ts", 15L, aggs, 2).select("k", "ts", "w_sum", "w_cnt")
    assert(canon(o) == canon(n))
  }
}
