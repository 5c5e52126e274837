package repro.core

import org.apache.spark.sql.Row
import repro.{SparkSpec, SynthData}
import repro.core.online.{OnlineTable, PreAggTable, RequestEngine}

/** The paper's headline claim (§1, §4): one feature script, two execution
  * engines, identical results. We compile a [[FeatureSpec]] offline (Spark
  * plan over the full table) and online (request engine over the skiplist
  * store) and assert row-for-row equality of every feature — including
  * WINDOW UNION, LAST JOIN, the pre-aggregated long-window path and all
  * ten functions, the order-sensitive `drawdown` and `ew_avg` among them.
  * Only timestamp ties are left out where order matters: under a tie the
  * two engines order a frame's peers differently.
  */
class ConsistencySpec extends SparkSpec {

  private val spec = FeatureSpec(
    primary = "actions",
    windows = Seq(
      WindowDef("w_union_3s", "userid", "ts", 3000L, unionTables = Seq("orders")),
      WindowDef("w_long", "userid", "ts", 50000L)),
    features = Seq(
      Feature("f_cnt", FeatureFn.Count, "w_union_3s"),
      Feature("f_sum", FeatureFn.Sum("price"), "w_union_3s"),
      Feature("f_dc", FeatureFn.DistinctCount("category"), "w_union_3s"),
      Feature("f_top", FeatureFn.TopNFreq("category", 2), "w_union_3s"),
      Feature("f_avg", FeatureFn.Avg("price"), "w_long"),
      Feature("f_min", FeatureFn.Min("price"), "w_long"),
      Feature("f_max", FeatureFn.Max("price"), "w_long")),
    lastJoins = Seq(LastJoinDef("profile", "userid", "pts", Seq("segment"), "p_")))

  private def toMap(r: Row): Map[String, Any] = r.schema.fieldNames.zip(r.toSeq).toMap

  /** Online answers for every primary row of `data` (table name -> rows).
    * Each request runs on a fresh engine that holds every row except the
    * request itself, so it sees what the offline full-table frame sees.
    * Every table is keyed by `userid`; a LAST JOIN table is timed by its
    * own ts column, the others by `ts`.
    */
  private def onlineForSpec(s: FeatureSpec, data: Map[String, Seq[Row]]): Seq[Map[String, Any]] =
    data(s.primary).map { r =>
      val tables = data.keys.map { t =>
        t -> new OnlineTable("userid", s.lastJoins.find(_.table == t).fold("ts")(_.tsCol))
      }.toMap
      val e = new RequestEngine(s, tables)
      data.foreach { case (t, rows) => rows.filterNot(_ eq r).foreach(x => e.insert(t, toMap(x))) }
      e.request(toMap(r))
    }

  private def num(v: Any): Double = v match {
    case null      => Double.NaN
    case d: Double => d
    case l: Long   => l.toDouble
    case i: Int    => i.toDouble
    case o         => o.toString.toDouble
  }

  test("offline and online agree on every feature for every row") {
    import spark.implicits._
    val actionsDf = SynthData.actions(spark, rows = 300, nUsers = 12, spanMs = 60000L)
    val ordersDf = SynthData.ordersStream(spark, rows = 150, nUsers = 12, spanMs = 60000L)
    // Distinct (userid, pts) pairs: the LAST JOIN tie rule is not under test.
    val profileDf = (1L to 12L).flatMap(u => (0 until 3).map(i => (u, u * 1000L + i * 20000L, s"seg${u}_$i")))
      .toDF("userid", "pts", "segment")
    val data = Map("actions" -> actionsDf, "orders" -> ordersDf, "profile" -> profileDf)

    val offline = UnifiedPlanner.offline(spark, data, spec).collect()
    val online = onlineForSpec(spec, data.map { case (t, df) => t -> df.collect().toSeq })

    // index both sides by (userid, ts, price) — unique with high probability
    def key(m: Map[String, Any]) = (num(m("userid")).toLong, num(m("ts")).toLong, num(m("price")))
    val onIdx = online.map(m => key(m) -> m).toMap
    assert(offline.length == online.size)

    offline.foreach { r =>
      val m = toMap(r)
      val o = onIdx(key(m))
      for (f <- Seq("f_cnt", "f_dc")) assert(num(m(f)) == num(o(f)), s"$f at ${key(m)}")
      for (f <- Seq("f_sum", "f_avg", "f_min", "f_max")) {
        val (a, b) = (num(m(f)), num(o(f)))
        assert((a.isNaN && b.isNaN) || math.abs(a - b) < 1e-6, s"$f at ${key(m)}: $a vs $b")
      }
      assert(m("f_top") == o("f_top"), s"f_top at ${key(m)}")
      assert(m("p_segment") == o("p_segment"), s"p_segment at ${key(m)}")
    }
  }

  test("all ten functions agree over a WINDOW UNION window and a plain window") {
    import spark.implicits._
    val rnd = new scala.util.Random(12)
    // Distinct ts across both tables, so every (userid, ts) is unique and
    // no frame has ties; about 20% of each value column is null.
    val ts = rnd.shuffle((0L until 30000L).toVector).take(360)
    def maybe[T](v: => T): Option[T] = if (rnd.nextInt(5) == 0) None else Some(v)
    def price = maybe(1.0 + rnd.nextInt(100))
    def category = maybe(s"c${rnd.nextInt(4)}")
    val actions = ts.take(240).map(t => (1L + rnd.nextInt(6), t, price, category, maybe(rnd.nextBoolean())))
      .toDF("userid", "ts", "price", "category", "flag")
    // No `flag` column: the union rows never pass avg_cate_where's condition.
    val orders = ts.drop(240).map(t => (1L + rnd.nextInt(6), t, price, category))
      .toDF("userid", "ts", "price", "category")
    def all(w: String) = Seq(
      Feature(s"${w}_cnt", FeatureFn.Count, w),
      Feature(s"${w}_sum", FeatureFn.Sum("price"), w),
      Feature(s"${w}_avg", FeatureFn.Avg("price"), w),
      Feature(s"${w}_min", FeatureFn.Min("price"), w),
      Feature(s"${w}_max", FeatureFn.Max("price"), w),
      Feature(s"${w}_dc", FeatureFn.DistinctCount("category"), w),
      Feature(s"${w}_top", FeatureFn.TopNFreq("category", 2), w),
      Feature(s"${w}_cate", FeatureFn.AvgCateWhere("price", "flag", "category"), w),
      Feature(s"${w}_dd", FeatureFn.Drawdown("price"), w),
      Feature(s"${w}_ew", FeatureFn.EwAvg("price", 0.3), w))
    val spec10 = FeatureSpec("actions",
      Seq(WindowDef("wu", "userid", "ts", 3000L, unionTables = Seq("orders")), WindowDef("wp", "userid", "ts", 20000L)),
      all("wu") ++ all("wp"))
    val data = Map("actions" -> actions, "orders" -> orders)

    val offline = UnifiedPlanner.offline(spark, data, spec10).collect().map(toMap)
    val online = onlineForSpec(spec10, data.map { case (t, df) => t -> df.collect().toSeq })
      .map(m => (m("userid"), m("ts")) -> m).toMap
    assert(offline.length == 240 && online.size == 240)
    offline.foreach { m =>
      val o = online((m("userid"), m("ts")))
      spec10.features.map(_.name).foreach { f =>
        (m(f), o(f)) match {
          case (a: String, b) => assert(a == b, s"$f at ${m("ts")}")
          case (a, b) =>
            val (x, y) = (num(a), num(b))
            assert((x.isNaN && y.isNaN) || math.abs(x - y) <= 1e-9 * math.max(1.0, math.abs(x)),
              s"$f at ${m("ts")}: offline $a, online $b")
        }
      }
    }
  }

  test("duplicate-timestamp rows agree (frame includes all ties)") {
    import spark.implicits._
    val a = Seq((1L, 100L, 10.0, "x"), (1L, 100L, 20.0, "y"), (1L, 200L, 30.0, "x"))
      .toDF("userid", "ts", "price", "category")
    val o = Seq.empty[(Long, Long, Double, String)].toDF("userid", "ts", "price", "category")
    val spec2 = FeatureSpec("actions",
      Seq(WindowDef("w", "userid", "ts", 1000L)),
      Seq(Feature("s", FeatureFn.Sum("price"), "w"), Feature("c", FeatureFn.Count, "w")))
    val offline = UnifiedPlanner.offline(spark, Map("actions" -> a), spec2)
      .orderBy("ts", "price").collect()
    val online = onlineForSpec(spec2, Map("actions" -> a.collect().toSeq))
    val onIdx = online.map(m => (num(m("ts")).toLong, num(m("price"))) -> m).toMap
    offline.foreach { r =>
      val m = toMap(r)
      val o2 = onIdx((num(m("ts")).toLong, num(m("price"))))
      assert(num(m("s")) == num(o2("s")) && num(m("c")) == num(o2("c")))
    }
  }

  test("sum, min and max over a Long column have one type and value in both engines") {
    import spark.implicits._
    val df = Seq((1L, 100L, 3L), (1L, 200L, 5L), (1L, 300L, 2L)).toDF("userid", "ts", "qty")
    val spec2 = FeatureSpec("actions", Seq(WindowDef("w", "userid", "ts", 1000L)),
      Seq(Feature("s", FeatureFn.Sum("qty"), "w"), Feature("lo", FeatureFn.Min("qty"), "w"),
          Feature("hi", FeatureFn.Max("qty"), "w")))
    val offline = UnifiedPlanner.offline(spark, Map("actions" -> df), spec2).collect()
      .map(r => toMap(r)).map(m => m("ts") -> m).toMap
    val online = onlineForSpec(spec2, Map("actions" -> df.collect().toSeq))
    assert(online.size == 3)
    online.foreach { o =>
      val m = offline(o("ts"))
      for (f <- Seq("s", "lo", "hi"))
        assert(m(f) == o(f) && m(f).getClass == o(f).getClass,
          s"$f at ts=${o("ts")}: offline ${m(f)} (${m(f).getClass}), online ${o(f)} (${o(f).getClass})")
    }
  }

  test("pre-aggregated online path stays consistent with offline") {
    import spark.implicits._
    val rnd = new scala.util.Random(3)
    val rows = (1 to 400).map(i => (1L, i * 37L, rnd.nextInt(50).toDouble, "c"))
    val df = rows.toDF("userid", "ts", "price", "category")
    val spec2 = FeatureSpec("actions",
      Seq(WindowDef("w", "userid", "ts", 5000L)),
      Seq(Feature("s", FeatureFn.Sum("price"), "w"),
          Feature("mx", FeatureFn.Max("price"), "w")))
    val offline = UnifiedPlanner.offline(spark, Map("actions" -> df), spec2).collect()
      .map(r => (r.getAs[Long]("ts"), (r.getAs[Double]("s"), r.getAs[Double]("mx")))).toMap

    def toMap(r: (Long, Long, Double, String)): Map[String, Any] =
      Map("userid" -> r._1, "ts" -> r._2, "price" -> r._3, "category" -> r._4)
    rows.foreach { r =>
      val pa = new PreAggTable(Seq(100L, 1000L))
      val t = Map("actions" -> new OnlineTable("userid", "ts"))
      val e = new RequestEngine(spec2, t, Map(("w", "price") -> pa))
      rows.filterNot(_ == r).foreach(x => e.insert("actions", toMap(x)))
      val out = e.request(toMap(r))
      val (s, mx) = offline(r._2)
      assert(math.abs(num(out("s")) - s) < 1e-6, s"sum at ts=${r._2}")
      assert(num(out("mx")) == mx, s"max at ts=${r._2}")
    }
  }
}
