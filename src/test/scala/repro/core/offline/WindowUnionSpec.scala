package repro.core.offline

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.core.functions.Aggregators

class WindowUnionSpec extends SparkSpec {
  private lazy val actions = {
    import spark.implicits._
    Seq(
      (1L, 1000L, 10.0, "shoes"), (1L, 3500L, 20.0, "books"),
      (1L, 4000L, 30.0, "shoes"), (2L, 2000L, 5.0, "toys"),
    ).toDF("userid", "ts", "price", "category")
  }
  private lazy val orders = {
    import spark.implicits._
    Seq(
      (1L, 3000L, 100.0, "shoes"), (1L, 6900L, 200.0, "tech"), (2L, 1500L, 50.0, "toys"),
    ).toDF("userid", "ts", "price", "category")
  }

  /** DuckDB reference: per primary row, aggregate over both tables within
    * the closed window [ts - W, ts].
    */
  private def oracleSql(w: Long, agg: String, alias: String): String =
    s"""SELECT a.userid, a.ts, (
       |  SELECT $agg FROM (
       |    SELECT userid, ts, price FROM actions
       |    UNION ALL SELECT userid, ts, price FROM orders) u
       |  WHERE u.userid = a.userid
       |    AND CAST(u.ts AS BIGINT) BETWEEN CAST(a.ts AS BIGINT) - $w AND CAST(a.ts AS BIGINT)
       |) AS $alias
       |FROM actions a""".stripMargin

  test("union window count matches DuckDB") {
    val out = WindowUnion(actions, Seq(orders), "userid", "ts", 3000L,
      Seq(("c", count(lit(1)))))
      .select("userid", "ts", "c")
    Oracle.assertEquivalent(out, oracleSql(3000L, "COUNT(*)", "c"),
      "actions" -> actions, "orders" -> orders)
  }

  test("union window sum matches DuckDB") {
    val out = WindowUnion(actions, Seq(orders), "userid", "ts", 3000L,
      Seq(("s", sum(col("price")))))
      .select("userid", "ts", "s")
    Oracle.assertEquivalent(out, oracleSql(3000L, "SUM(CAST(u.price AS DOUBLE))", "s"),
      "actions" -> actions, "orders" -> orders)
  }

  test("secondary rows feed frames but never appear as output rows") {
    val out = WindowUnion(actions, Seq(orders), "userid", "ts", 3000L,
      Seq(("c", count(lit(1)))))
    assert(out.count() == actions.count())
    // the order at ts=6900 for user 1 produced no output row
    assert(out.filter(col("ts") === 6900L).count() == 0)
  }

  test("secondary row exactly at the frame edge is included") {
    // action at 4000, window 3000 -> frame [1000, 4000]; order at 3000 in
    val out = WindowUnion(actions, Seq(orders), "userid", "ts", 3000L,
      Seq(("s", sum(col("price"))))).filter(col("ts") === 4000L).collect()
    assert(out.head.getAs[Double]("s") == 10.0 + 20.0 + 30.0 + 100.0)
  }

  test("multiple secondary tables union into one frame") {
    import spark.implicits._
    val extra = Seq((1L, 3900L, 1000.0, "misc")).toDF("userid", "ts", "price", "category")
    val out = WindowUnion(actions, Seq(orders, extra), "userid", "ts", 3000L,
      Seq(("s", sum(col("price"))))).filter(col("ts") === 4000L).collect()
    assert(out.head.getAs[Double]("s") == 10.0 + 20.0 + 30.0 + 100.0 + 1000.0)
  }

  test("keys never mix across the union") {
    val out = WindowUnion(actions, Seq(orders), "userid", "ts", 10000L,
      Seq(("c", count(lit(1))))).filter(col("userid") === 2L).collect()
    assert(out.head.getAs[Long]("c") == 2L) // own action + user-2 order only
  }

  test("missing columns in a secondary table are null-filled, not dropped") {
    import spark.implicits._
    Aggregators.register(spark)
    val slim = Seq((1L, 3600L, 7.0)).toDF("userid", "ts", "price") // no category
    val out = WindowUnion(actions, Seq(slim), "userid", "ts", 3000L,
      Seq(("s", sum(col("price"))), ("dc", expr("distinct_count(category)"))))
    // distinct_count skips the null category from the slim row
    val r4000 = out.filter(col("ts") === 4000L).collect().head
    assert(r4000.getAs[Double]("s") == 10.0 + 20.0 + 30.0 + 7.0)
    assert(r4000.getAs[Long]("dc") == 2L) // shoes, books
  }

  test("openmldb aggregates work over union windows (topn_frequency)") {
    Aggregators.register(spark)
    val out = WindowUnion(actions, Seq(orders), "userid", "ts", 3000L,
      Seq(("top", expr("topn_frequency(category, 1)"))))
      .filter(col("ts") === 4000L).collect()
    // frame [1000,4000] for user 1: shoes(1000), books(3500), shoes(4000), order shoes(3000)
    assert(out.head.getAs[String]("top") == "shoes")
  }

  test("window of zero length still sees same-timestamp rows") {
    import spark.implicits._
    val prim = Seq((1L, 100L, 1.0, "a")).toDF("userid", "ts", "price", "category")
    val sec = Seq((1L, 100L, 2.0, "b")).toDF("userid", "ts", "price", "category")
    val out = WindowUnion(prim, Seq(sec), "userid", "ts", 0L,
      Seq(("s", sum(col("price"))))).collect()
    assert(out.head.getAs[Double]("s") == 3.0)
  }
}
