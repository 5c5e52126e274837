package repro.core.functions

import org.apache.spark.sql.Encoder
import org.apache.spark.sql.catalyst.encoders.encoderFor
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}

/** The OpenMLDB aggregates exercised through Spark SQL — grouped and over
  * window frames — against AggCore references and the DuckDB oracle.
  */
class AggregatorsSpec extends SparkSpec {

  private lazy val events = {
    import spark.implicits._
    val df = Seq(
      // key, ts, cat, price, qty
      (1L, 100L, "shoes", 10.0, 2),
      (1L, 200L, "books", 20.0, 1),
      (1L, 300L, "shoes", 30.0, 3),
      (1L, 400L, "toys",  40.0, 1),
      (2L, 150L, "books",  5.0, 2),
      (2L, 250L, "books", 15.0, 2),
    ).toDF("k", "ts", "cat", "price", "qty")
    df.createOrReplaceTempView("ev")
    Aggregators.register(spark)
    df
  }

  test("registration is idempotent") {
    Aggregators.register(spark); Aggregators.register(spark)
    assert(spark.sql("SELECT 1").count() == 1)
  }

  test("topn_frequency in a grouped aggregate") {
    events
    val r = spark.sql("SELECT k, topn_frequency(cat, 2) AS t FROM ev GROUP BY k ORDER BY k")
      .collect()
    assert(r(0).getString(1) == "shoes,books")
    assert(r(1).getString(1) == "books")
  }

  test("topn_frequency over a window matches the per-frame reference") {
    val data = events.collect().map(r => (r.getLong(0), r.getLong(1), r.getString(2)))
    val rows = spark.sql(
      """SELECT k, ts, topn_frequency(cat, 1) OVER
        |  (PARTITION BY k ORDER BY ts RANGE BETWEEN 200 PRECEDING AND CURRENT ROW) AS t
        |FROM ev""".stripMargin).collect()
    rows.foreach { r =>
      val (k, ts) = (r.getLong(0), r.getLong(1))
      val st = new AggCore.TopNFreqState(1)
      data.filter(d => d._1 == k && d._2 >= ts - 200 && d._2 <= ts)
        .sortBy(_._2).foreach(d => st.update(d._3))
      assert(r.getString(2) == st.result, s"k=$k ts=$ts")
    }
  }

  test("distinct_count over a window") {
    events
    val rows = spark.sql(
      """SELECT k, ts, distinct_count(cat) OVER
        |  (PARTITION BY k ORDER BY ts RANGE BETWEEN 300 PRECEDING AND CURRENT ROW) AS d
        |FROM ev ORDER BY k, ts""".stripMargin).collect()
    assert(rows.map(_.getLong(2)).toSeq == Seq(1L, 2L, 2L, 3L, 1L, 1L))
  }

  test("distinct_count agrees with DuckDB count(distinct) when grouped") {
    import spark.implicits._
    val df = events.groupBy($"k").agg(expr("distinct_count(cat)").as("d"))
    Oracle.assertEquivalent(df,
      "SELECT k, COUNT(DISTINCT cat) AS d FROM ev GROUP BY k",
      "ev" -> events)
  }

  test("avg_cate_where applies the condition before averaging") {
    events
    val r = spark.sql(
      "SELECT k, avg_cate_where(price, qty > 1, cat) AS a FROM ev GROUP BY k ORDER BY k")
      .collect()
    // k=1 passing: shoes 10 (qty2), shoes 30 (qty3) -> shoes:20.0
    assert(r(0).getString(1) == "shoes:20.0")
    assert(r(1).getString(1) == "books:10.0")
  }

  test("avg_cate_where over a window frame") {
    events
    val rows = spark.sql(
      """SELECT k, ts, avg_cate_where(price, qty > 1, cat) OVER
        |  (PARTITION BY k ORDER BY ts RANGE BETWEEN 1000 PRECEDING AND CURRENT ROW) AS a
        |FROM ev WHERE k = 1 ORDER BY ts""".stripMargin).collect()
    assert(rows.last.getString(2) == "shoes:20.0")
  }

  test("drawdown over an ordered window") {
    import spark.implicits._
    events
    Seq((1L, 1L, 50.0), (1L, 2L, 100.0), (1L, 3L, 60.0), (1L, 4L, 120.0), (1L, 5L, 90.0))
      .toDF("k", "ts", "price").createOrReplaceTempView("s")
    val r = spark.sql(
      """SELECT ts, drawdown(price) OVER
        |  (PARTITION BY k ORDER BY ts ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS dd
        |FROM s ORDER BY ts""".stripMargin).collect()
    assert(r.map(_.getDouble(1)).toSeq == Seq(0.0, 0.0, 0.4, 0.4, 0.4))
  }

  test("ew_avg over an ordered window matches the closed form") {
    import spark.implicits._
    events
    Seq((1L, 1L, 1.0), (1L, 2L, 2.0), (1L, 3L, 3.0), (1L, 4L, 4.0)).toDF("k", "ts", "v")
      .createOrReplaceTempView("s2")
    val r = spark.sql(
      """SELECT ts, ew_avg(v, 0.3) OVER
        |  (PARTITION BY k ORDER BY ts ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS e
        |FROM s2 ORDER BY ts""".stripMargin).collect()
    val xs = Seq(1.0, 2.0, 3.0, 4.0)
    xs.indices.foreach { i =>
      val prefix = xs.take(i + 1)
      val w = prefix.indices.map(j => math.pow(0.7, prefix.size - 1 - j))
      val expect = prefix.zip(w).map { case (x, ww) => x * ww }.sum / w.sum
      assert(math.abs(r(i).getDouble(1) - expect) < 1e-9, s"i=$i")
    }
  }

  test("native sum over range windows agrees with DuckDB (frame semantics)") {
    import spark.implicits._
    val w = Window.partitionBy($"k").orderBy($"ts").rangeBetween(-200, 0)
    val df = events.select($"k", $"ts", sum($"price").over(w).as("s"))
    Oracle.assertEquivalent(df,
      """SELECT k, ts, (SELECT SUM(CAST(e2.price AS DOUBLE)) FROM ev e2
        |  WHERE e2.k = e1.k AND CAST(e2.ts AS BIGINT) BETWEEN CAST(e1.ts AS BIGINT) - 200
        |    AND CAST(e1.ts AS BIGINT)) AS s
        |FROM ev e1""".stripMargin,
      "ev" -> events)
  }

  test("drawdown in a grouped (orderless) aggregate is rejected on merge") {
    events
    // partial states from different partitions must be merged — the
    // order-sensitive aggregator refuses rather than silently mis-ordering
    val ex = intercept[Exception] {
      spark.sql("SELECT /*+ REPARTITION(4) */ k, drawdown(price) AS d FROM ev GROUP BY k")
        .collect()
    }
    assert(ex.getMessage != null)
  }

  /** A buffer through its aggregator's Kryo encoder: serialized to a row
    * and deserialized back, as Spark moves it between tasks.
    */
  private def roundTrip[T](enc: Encoder[T], x: T): T = {
    val e = encoderFor(enc)
    e.resolveAndBind().createDeserializer()(e.createSerializer()(x).copy())
  }

  test("topn_frequency, distinct_count and avg_cate_where buffers survive Kryo and merge") {
    spark
    import Aggregators._
    val top = new TopNFreqAgg
    def topOf(xs: String*) = xs.foldLeft(top.zero)((b, x) => top.reduce(b, (x, 3)))
    // merged counts y:2, z:2, w:1, x:1 — both count ties broken by key
    val topMerged = top.merge(roundTrip(top.bufferEncoder, topOf("x", "y", "y", "z")),
      roundTrip(top.bufferEncoder, topOf("z", "w")))
    assert(top.finish(topMerged) == "y,z,w")
    assert(top.finish(top.merge(topOf("x", "y", "y", "z"), topOf("z", "w"))) == "y,z,w")

    val dc = new DistinctCountAgg
    def dcOf(xs: String*) = xs.foldLeft(dc.zero)(dc.reduce)
    assert(dc.finish(dc.merge(roundTrip(dc.bufferEncoder, dcOf("x", "y", null)),
      roundTrip(dc.bufferEncoder, dcOf("y", "z")))) == 3L)

    val acw = new AvgCateWhereAgg
    def acwOf(xs: (java.lang.Double, java.lang.Boolean, String)*) = xs.foldLeft(acw.zero)(acw.reduce)
    val a = acwOf((10.0, true, "s"), (30.0, true, "s"), (5.0, false, "b"))
    val b = acwOf((5.0, true, "b"), (20.0, true, "s"))
    assert(acw.finish(acw.merge(roundTrip(acw.bufferEncoder, a), roundTrip(acw.bufferEncoder, b))) ==
      "b:5.0,s:20.0")
  }
}
