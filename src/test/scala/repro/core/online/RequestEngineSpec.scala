package repro.core.online

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.core.functions.AggCore

class RequestEngineSpec extends AnyFunSuite {

  private def mkEngine(preAgg: Map[(String, String), PreAggTable] = Map.empty) = {
    val spec = FeatureSpec(
      primary = "actions",
      windows = Seq(
        WindowDef("w3s", "userid", "ts", 3000L, unionTables = Seq("orders")),
        WindowDef("w10s", "userid", "ts", 10000L)),
      features = Seq(
        Feature("cnt", FeatureFn.Count, "w3s"),
        Feature("price_sum", FeatureFn.Sum("price"), "w3s"),
        Feature("price_avg", FeatureFn.Avg("price"), "w10s"),
        Feature("top_cat", FeatureFn.TopNFreq("category", 1), "w3s"),
        Feature("dd", FeatureFn.Drawdown("price"), "w10s")),
      lastJoins = Seq(LastJoinDef("profile", "userid", "pts", Seq("segment"), "p_")))
    val tables = Map(
      "actions" -> new OnlineTable("userid", "ts"),
      "orders"  -> new OnlineTable("userid", "ts"),
      "profile" -> new OnlineTable("userid", "pts"))
    (new RequestEngine(spec, tables, preAgg), tables)
  }

  private def action(u: Long, ts: Long, price: Double, cat: String): Map[String, Any] =
    Map("userid" -> u, "ts" -> ts, "price" -> price, "category" -> cat)

  test("request over an empty store sees only the virtual tuple") {
    val (eng, _) = mkEngine()
    val out = eng.request(action(1, 1000, 9.0, "shoes"))
    assert(out("cnt") == 1L)
    assert(out("price_sum") == 9.0)
    assert(out("top_cat") == "shoes")
  }

  test("window frames include stored rows within range") {
    val (eng, _) = mkEngine()
    eng.insert("actions", action(1, 500, 10.0, "books"))
    eng.insert("actions", action(1, 900, 20.0, "shoes"))
    val out = eng.request(action(1, 1000, 30.0, "shoes"))
    assert(out("cnt") == 3L)
    assert(out("price_sum") == 60.0)
    assert(out("top_cat") == "shoes")
  }

  test("rows outside the window range are excluded") {
    val (eng, _) = mkEngine()
    eng.insert("actions", action(1, 100, 10.0, "books"))   // 3s window at ts=5000 excludes
    eng.insert("actions", action(1, 4000, 20.0, "shoes"))
    val out = eng.request(action(1, 5000, 1.0, "toys"))
    assert(out("cnt") == 2L)
    assert(out("price_sum") == 21.0)
  }

  test("union tables contribute to union windows only") {
    val (eng, _) = mkEngine()
    eng.insert("orders", action(1, 900, 100.0, "tech"))
    val out = eng.request(action(1, 1000, 1.0, "shoes"))
    assert(out("cnt") == 2L)          // w3s unions orders
    assert(out("price_sum") == 101.0)
    assert(out("price_avg") == 1.0)   // w10s does NOT union orders
  }

  test("keys are isolated across users") {
    val (eng, _) = mkEngine()
    eng.insert("actions", action(2, 900, 50.0, "x"))
    val out = eng.request(action(1, 1000, 1.0, "y"))
    assert(out("cnt") == 1L)
  }

  test("request tuples are not persisted (virtual insert)") {
    val (eng, _) = mkEngine()
    val a = eng.request(action(1, 1000, 5.0, "a"))
    val b = eng.request(action(1, 1000, 5.0, "a"))
    assert(a("cnt") == 1L && b("cnt") == 1L)
  }

  test("last join returns the latest at-or-before profile row") {
    val (eng, _) = mkEngine()
    eng.insert("profile", Map("userid" -> 1L, "pts" -> 100L, "segment" -> "bronze"))
    eng.insert("profile", Map("userid" -> 1L, "pts" -> 800L, "segment" -> "gold"))
    eng.insert("profile", Map("userid" -> 1L, "pts" -> 2000L, "segment" -> "vip"))
    val out = eng.request(action(1, 1000, 1.0, "c"))
    assert(out("p_segment") == "gold")
  }

  test("last join with no match yields null") {
    val (eng, _) = mkEngine()
    val out = eng.request(action(7, 1000, 1.0, "c"))
    assert(out("p_segment") == null)
  }

  test("drawdown sees rows oldest-to-newest") {
    val (eng, _) = mkEngine()
    eng.insert("actions", action(1, 100, 100.0, "a"))
    eng.insert("actions", action(1, 200, 60.0, "a"))
    val out = eng.request(action(1, 300, 120.0, "a"))
    assert(math.abs(out("dd").asInstanceOf[Double] - 0.4) < 1e-12)
  }

  test("pre-agg path equals the raw-scan path") {
    val pa = new PreAggTable(Seq(100L, 1000L))
    val (engPre, _) = mkEngine(Map(("w10s", "price") -> pa))
    val (engRaw, _) = mkEngine()
    val rnd = new scala.util.Random(8)
    (1 to 500).foreach { i =>
      val a = action(1, i * 17L, rnd.nextInt(100).toDouble, "c")
      engPre.insert("actions", a); engRaw.insert("actions", a)
    }
    val req = action(1, 9000, 5.0, "c")
    val (p, r) = (engPre.request(req), engRaw.request(req))
    assert(math.abs(p("price_avg").asInstanceOf[Double] - r("price_avg").asInstanceOf[Double]) < 1e-9)
  }

  test("pre-agg actually uses buckets for long windows") {
    val pa = new PreAggTable(Seq(100L, 1000L))
    val (eng, _) = mkEngine(Map(("w10s", "price") -> pa))
    (0 until 1000).foreach(i => eng.insert("actions", action(1, i * 10L, 1.0, "c")))
    eng.request(action(1, 9999, 1.0, "c"))
    assert(pa.lastQueryBuckets > 0)
    assert(pa.lastQueryRawRows < 1000, "bulk of the window must come from buckets")
  }

  test("null feature values propagate as nulls, not exceptions") {
    val (eng, _) = mkEngine()
    val out = eng.request(Map("userid" -> 1L, "ts" -> 1000L, "price" -> null, "category" -> null))
    assert(out("price_sum") == null)
    assert(out("cnt") == 1L)
  }

  test("every pre-aggregated function of a window equals the raw-scan path") {
    val spec = FeatureSpec(
      primary = "actions",
      windows = Seq(WindowDef("w10s", "userid", "ts", 10000L)),
      features = Seq(
        Feature("n", FeatureFn.Count, "w10s"),
        Feature("s", FeatureFn.Sum("price"), "w10s"),
        Feature("a", FeatureFn.Avg("price"), "w10s"),
        Feature("lo", FeatureFn.Min("price"), "w10s"),
        Feature("hi", FeatureFn.Max("price"), "w10s")))
    def engine(preAgg: Map[(String, String), PreAggTable]) =
      new RequestEngine(spec, Map("actions" -> new OnlineTable("userid", "ts")), preAgg)
    val engPre = engine(Map(("w10s", "price") -> new PreAggTable(Seq(100L, 1000L))))
    val engRaw = engine(Map.empty)
    val rnd = new scala.util.Random(9)
    (1 to 400).foreach { i =>
      val a = action(1, i * 37L, rnd.nextInt(100).toDouble, "c")
      engPre.insert("actions", a); engRaw.insert("actions", a)
    }
    Seq(action(1, 14000, 5.0, "c"), action(1, 14000, 500.0, "c"), action(1, 14000, -1.0, "c"),
        Map[String, Any]("userid" -> 1L, "ts" -> 14000L, "price" -> null),
        Map[String, Any]("userid" -> 2L, "ts" -> 14000L, "price" -> null)).foreach { req =>
      val (p, r) = (engPre.request(req), engRaw.request(req))
      Seq("n", "lo", "hi").foreach(f => assert(p(f) == r(f), s"$f for $req"))
      Seq("s", "a").foreach { f =>
        (p(f), r(f)) match {
          case (x: Double, y: Double) => assert(math.abs(x - y) < 1e-9, s"$f for $req")
          case (x, y)                 => assert(x == y, s"$f for $req")
        }
      }
    }
  }

  test("concurrent ingest and serving over disjoint keys matches a single-threaded replay") {
    val rnd = new scala.util.Random(31)
    // (key, table or null for a request, row); ts mostly ascending with
    // some late rows
    val log = (0 until 20000).map { i =>
      val u = rnd.nextInt(40).toLong
      val ts = i * 7L - (if (rnd.nextInt(10) == 0) rnd.nextInt(3000) else 0)
      rnd.nextInt(10) match {
        case k if k < 4 => (u, "actions", action(u, ts, rnd.nextInt(100).toDouble, s"c${rnd.nextInt(4)}"))
        case 4          => (u, "orders", action(u, ts, rnd.nextInt(100).toDouble, s"c${rnd.nextInt(4)}"))
        case 5          => (u, "profile", Map[String, Any]("userid" -> u, "pts" -> ts, "segment" -> s"s${i % 5}"))
        case _          => (u, null, action(u, i * 7L, rnd.nextInt(100).toDouble, s"c${rnd.nextInt(4)}"))
      }
    }
    def step(eng: RequestEngine, i: Int): Map[String, Any] = log(i) match {
      case (_, null, req)   => eng.request(req)
      case (_, table, row)  => eng.insert(table, row); null
    }
    def withPreAgg() = mkEngine(Map(("w10s", "price") -> new PreAggTable(Seq(100L, 1000L))))._1
    val serial = withPreAgg()
    val want = log.indices.map(step(serial, _))
    val shared = withPreAgg()
    val got = new Array[Map[String, Any]](log.length)
    val threads = (0 until 2).map { part =>
      new Thread(() => log.indices.foreach(i => if (log(i)._1 % 2 == part) got(i) = step(shared, i)))
    }
    threads.foreach(_.start()); threads.foreach(_.join())
    log.indices.foreach(i => assert(got(i) == want(i), s"event $i: ${log(i)}"))
  }

  /** A 10 s window over `t`, with count and sum of `v` served by `pa`
    * (a `PreAggTable(Seq(1000))`) or, without one, folded from the raw
    * frame.
    */
  private def nullProbe(pa: PreAggTable = null): RequestEngine = {
    val spec = FeatureSpec("t", Seq(WindowDef("w", "k", "ts", 10000L)),
      Seq(Feature("n", FeatureFn.Count, "w"), Feature("s", FeatureFn.Sum("v"), "w")))
    val preAgg = if (pa != null) Map(("w", "v") -> pa) else Map.empty[(String, String), PreAggTable]
    new RequestEngine(spec, Map("t" -> new OnlineTable("k", "ts")), preAgg)
  }
  private def probeRow(ts: Long, v: java.lang.Double): Map[String, Any] = Map("k" -> 1L, "ts" -> ts, "v" -> v)

  /** Stores [[PreAggTable.BuildRows]] rows of key 1 at `from`, `from + 10`,
    * .. in each engine, so a pre-aggregation holds buckets for the key
    * before a test's own rows arrive; `from` lies below every window the
    * test reads.
    */
  private def history(from: Long, engines: RequestEngine*): Unit =
    (0 until PreAggTable.BuildRows).foreach { i =>
      val row = probeRow(from + 10L * i, 1.0 + i)
      engines.foreach(_.insert("t", row))
    }

  test("pre-agg: a null value on a raw edge is counted, not a crash") {
    val pa = new PreAggTable(Seq(1000L))
    val (pre, raw) = (nullProbe(pa), nullProbe())
    history(0, pre, raw)
    Seq(probeRow(800, null), probeRow(5000, 2.0)).foreach { r => pre.insert("t", r); raw.insert("t", r) }
    // [700, 10700]: the row at 800 lies below the first full bucket
    val req = probeRow(10700, 4.0)
    val (p, r) = (pre.request(req), raw.request(req))
    assert(pa.lastQueryBuckets > 0 && pa.lastQueryRawRows == 1)
    assert(r("n") == 3L && r("s") == 6.0)
    assert(p("n") == r("n") && p("s") == r("s"))
  }

  test("pre-agg: Count counts null-valued rows inside buckets") {
    val pa = new PreAggTable(Seq(1000L))
    val (pre, raw) = (nullProbe(pa), nullProbe())
    history(0, pre, raw)
    Seq(probeRow(3000, 1.0), probeRow(3500, null)).foreach { r => pre.insert("t", r); raw.insert("t", r) }
    val req = probeRow(10700, 4.0)
    assert(raw.request(req)("n") == 3L)
    assert(pre.request(req)("n") == 3L)
    assert(pa.lastQueryBuckets > 0)
    assert(pre.request(probeRow(10700, null)) == raw.request(probeRow(10700, null)))
  }

  test("frame order under ts ties: primary before unions in listed order, newest insert first, request last") {
    val spec = FeatureSpec("a", Seq(WindowDef("w", "k", "ts", 100L, unionTables = Seq("u1", "u2"))),
      Seq(Feature("ew", FeatureFn.EwAvg("v", 0.3), "w"), Feature("dd", FeatureFn.Drawdown("v"), "w")))
    val names = Seq("a", "u1", "u2")
    val eng = new RequestEngine(spec, names.map(_ -> new OnlineTable("k", "ts")).toMap)
    val rnd = new scala.util.Random(11)
    // (table, insert seq, ts, v): 40 distinct ts for 300 rows, out of order
    val stored = (0 until 300).map(i => (rnd.nextInt(3), i, 1000L + rnd.nextInt(40) * 5, 1.0 + rnd.nextInt(1000)))
    stored.foreach { case (tb, _, ts, v) => eng.insert(names(tb), Map("k" -> 1L, "ts" -> ts, "v" -> v)) }
    (1000L to 1200L by 5).foreach { t =>
      val frame = stored.filter { case (_, _, ts, _) => ts >= t - 100 && ts <= t }
        .sortBy { case (tb, i, ts, _) => (ts, tb, -i) }.map(_._4) :+ 7.0
      val ew = new AggCore.EwAvgState(0.3); val dd = new AggCore.DrawdownState
      frame.foreach { v => ew.update(v); dd.update(v) }
      val out = eng.request(Map("k" -> 1L, "ts" -> t, "v" -> 7.0))
      assert(out("ew") == ew.result && out("dd") == dd.result, s"at ts=$t")
    }
  }

  test("a row inserted with a Double ts is found by a request and counted by its pre-agg") {
    val pa = new PreAggTable(Seq(100L, 1000L))
    val (eng, _) = mkEngine(Map(("w10s", "price") -> pa))
    // the key's first rows, below every window read here, so it holds buckets
    (0 until PreAggTable.BuildRows).foreach(i => eng.insert("actions", action(1, -20000L + 100 * i, 1.0, "c")))
    eng.insert("actions", Map("userid" -> 1L, "ts" -> 1500.0, "price" -> 9.0, "category" -> "c"))
    val out = eng.request(action(1, 2000, 1.0, "c"))
    assert(out("cnt") == 2L && out("price_sum") == 10.0)
    assert(out("price_avg") == 5.0)
    assert(pa.query("1", 1000L, 1999L, (_, _) => Iterator.empty).cnt == 1L)
    assert(pa.lastQueryBuckets > 0)
  }

  test("an engine over missing tables fails naming every one") {
    val spec = FeatureSpec("actions", Seq(WindowDef("w", "userid", "ts", 1000L, unionTables = Seq("orders"))),
      Seq(Feature("c", FeatureFn.Count, "w")), Seq(LastJoinDef("profile", "userid", "pts", Seq("segment"))))
    val e = intercept[IllegalArgumentException] {
      new RequestEngine(spec, Map("actions" -> new OnlineTable("userid", "ts")))
    }
    assert(e.getMessage.contains("orders, profile"), e.getMessage)
  }

  test("a row missing its key or ts column fails naming the table and the column") {
    val (eng, tables) = mkEngine()
    val noKey = intercept[IllegalArgumentException](eng.insert("orders", Map("ts" -> 1L, "price" -> 1.0)))
    assert(noKey.getMessage.contains("orders") && noKey.getMessage.contains("'userid'"), noKey.getMessage)
    val noTs = intercept[IllegalArgumentException](eng.insert("profile", Map("userid" -> 1L, "segment" -> "s")))
    assert(noTs.getMessage.contains("profile") && noTs.getMessage.contains("'pts'"), noTs.getMessage)
    assert(tables.values.forall(_.rows == 0))
  }

  test("a window over a table indexed by other columns fails at construction, naming both") {
    // Online would read the window through the `user` index; offline
    // partitions it by `cat`.
    val byCat = FeatureSpec("t", Seq(WindowDef("wc", "cat", "ts", 1000L)),
      Seq(Feature("c", FeatureFn.Count, "wc"), Feature("s", FeatureFn.Sum("v"), "wc")))
    val e = intercept[IllegalArgumentException](new RequestEngine(byCat, Map("t" -> new OnlineTable("user", "ts"))))
    Seq("window wc", "table t", "(cat, ts)", "(user, ts)").foreach(s => assert(e.getMessage.contains(s), e.getMessage))

    val unionByTs2 = FeatureSpec("a", Seq(WindowDef("wu", "k", "ts", 1000L, unionTables = Seq("u"))),
      Seq(Feature("c", FeatureFn.Count, "wu")))
    val u = intercept[IllegalArgumentException] {
      new RequestEngine(unionByTs2, Map("a" -> new OnlineTable("k", "ts"), "u" -> new OnlineTable("k", "ts2")))
    }
    Seq("window wu", "table u", "(k, ts)", "(k, ts2)").foreach(s => assert(u.getMessage.contains(s), u.getMessage))
  }

  test("a LAST JOIN's request ts is the first window's ts, and its table is indexed by the join's columns") {
    // Online the request ts comes from the primary's index, offline from the
    // first window: both must be `ets`, else online joins at pts=150.
    val spec = FeatureSpec("a", Seq(WindowDef("w", "k", "ets", 1000L)), Seq(Feature("c", FeatureFn.Count, "w")),
      Seq(LastJoinDef("p", "k", "pts", Seq("seg"))))
    val byPts = intercept[IllegalArgumentException] {
      new RequestEngine(spec, Map("a" -> new OnlineTable("k", "pts"), "p" -> new OnlineTable("k", "pts")))
    }
    Seq("window w", "table a", "(k, ets)", "(k, pts)").foreach(s => assert(byPts.getMessage.contains(s), byPts.getMessage))

    val joinByTs = intercept[IllegalArgumentException] {
      new RequestEngine(spec, Map("a" -> new OnlineTable("k", "ets"), "p" -> new OnlineTable("k", "ts")))
    }
    Seq("LAST JOIN p", "table p", "(k, pts)", "(k, ts)").foreach(s => assert(joinByTs.getMessage.contains(s), joinByTs.getMessage))

    val eng = new RequestEngine(spec, Map("a" -> new OnlineTable("k", "ets"), "p" -> new OnlineTable("k", "pts")))
    eng.insert("p", Map("k" -> 1L, "pts" -> 100L, "seg" -> "early"))
    eng.insert("p", Map("k" -> 1L, "pts" -> 180L, "seg" -> "late"))
    assert(eng.request(Map("k" -> 1L, "ets" -> 200L, "pts" -> 150L))("seg") == "late")
  }

  test("a pre-aggregation that no request reads fails at construction, naming its window") {
    val spec = FeatureSpec("actions",
      Seq(WindowDef("wu", "userid", "ts", 1000L, unionTables = Seq("orders")), WindowDef("wd", "userid", "ts", 1000L),
          WindowDef("wm", "userid", "ts", 1000L)),
      Seq(Feature("s", FeatureFn.Sum("price"), "wu"), Feature("dc", FeatureFn.DistinctCount("price"), "wd"),
          Feature("m", FeatureFn.Max("price"), "wm")))
    def engine(key: (String, String)) = new RequestEngine(spec,
      Map("actions" -> new OnlineTable("userid", "ts"), "orders" -> new OnlineTable("userid", "ts")),
      Map(key -> new PreAggTable(Seq(100L))))
    // An undeclared window, a WINDOW UNION window, and a window with no
    // count/sum/avg/min/max of the column
    Seq("nowin", "wu", "wd").foreach { w =>
      val e = intercept[IllegalArgumentException](engine((w, "price")))
      assert(e.getMessage.contains("no request reads") && e.getMessage.endsWith(s"price over window $w"), e.getMessage)
    }
    engine(("wm", "price"))
  }

  // ------------------------------------------------------------ feature row

  private val outNames = Seq("cnt", "price_sum", "price_avg", "top_cat", "dd", "p_segment")

  /** Asserts `resp` is, as a map, what `req ++ features` builds. */
  private def assertSameMap(resp: Map[String, Any], req: Map[String, Any]): Unit = {
    val want = req ++ outNames.map(n => n -> resp(n))
    assert(resp == want && want == resp, s"$resp vs $want")
    assert(resp.hashCode == want.hashCode)
    assert(resp.size == want.size && resp.keySet == want.keySet)
    assert(resp.iterator.size == want.size && resp.toMap == want)
    want.foreach { case (k, v) => assert(resp.contains(k) && resp.get(k) == Some(v) && resp(k) == v) }
  }

  test("the response is the map req ++ features builds, for random requests") {
    val pa = new PreAggTable(Seq(100L, 1000L))
    val (eng, _) = mkEngine(Map(("w10s", "price") -> pa))
    val rnd = new scala.util.Random(41)
    (0 until 300).foreach { i =>
      val u = rnd.nextInt(5).toLong
      rnd.nextInt(4) match {
        case 0 => eng.insert("orders", action(u, i * 50L, rnd.nextInt(100).toDouble, s"c${rnd.nextInt(3)}"))
        case 1 => eng.insert("profile", Map("userid" -> u, "pts" -> i * 50L, "segment" -> s"s${rnd.nextInt(3)}"))
        case _ => eng.insert("actions", action(u, i * 50L, rnd.nextInt(100).toDouble, s"c${rnd.nextInt(3)}"))
      }
    }
    (0 until 200).foreach { i =>
      val u = rnd.nextInt(7).toLong
      val req = rnd.nextInt(3) match {
        case 0 => action(u, rnd.nextInt(16000).toLong, rnd.nextInt(100).toDouble, "c1")
        case 1 => Map[String, Any]("userid" -> u, "ts" -> rnd.nextInt(16000).toLong, "price" -> null,
          "category" -> null, "extra" -> i)
        case _ => action(u, rnd.nextInt(16000).toLong, 1.0, "c2") ++ (0 until 6).map(c => s"col$c" -> c)
      }
      assertSameMap(eng.request(req), req)
    }
  }

  test("a null feature value is present under its key") {
    val (eng, _) = mkEngine()
    val out = eng.request(Map("userid" -> 1L, "ts" -> 1000L, "price" -> null, "category" -> null))
    Seq("price_sum", "price_avg", "dd", "p_segment").foreach { n =>
      assert(out.contains(n) && out.get(n) == Some(null) && out.getOrElse(n, 0) == null, n)
    }
    assert(out.collect { case (k, null) => k }.toSet == Set("price", "category", "price_sum", "price_avg", "dd", "p_segment"))
    assert(!out.contains("nope") && out.get("nope").isEmpty && out.getOrElse("nope", 7) == 7)
    intercept[NoSuchElementException](out("nope"))
  }

  test("a feature that shares a name with a request column wins, in lookups and in iteration") {
    val (eng, _) = mkEngine()
    eng.insert("actions", action(1, 900, 20.0, "shoes"))
    val req = action(1, 1000, 30.0, "shoes") ++ Map("cnt" -> "mine", "p_segment" -> "mine", "note" -> "kept")
    val out = eng.request(req)
    assert(out("cnt") == 2L && out.get("cnt") == Some(2L) && out("p_segment") == null && out("note") == "kept")
    assert(out.toSeq.count(_._1 == "cnt") == 1 && out.toSeq.contains("cnt" -> 2L))
    assert(out.size == req.size + outNames.size - 2)
    assertSameMap(out, req)
  }

  test("updated and removed give ordinary maps with the change applied") {
    val (eng, _) = mkEngine()
    val req = action(1, 1000, 5.0, "a")
    val out = eng.request(req)
    val up = out.updated("x", 1).updated("cnt", 9L)
    assert(up.isInstanceOf[scala.collection.immutable.HashMap[_, _]])
    assert(up == (req ++ outNames.map(n => n -> out(n))) + ("x" -> 1) + ("cnt" -> 9L))
    val rm = out.removed("cnt").removed("userid")
    assert(rm.isInstanceOf[scala.collection.immutable.HashMap[_, _]])
    assert(!rm.contains("cnt") && !rm.contains("userid") && rm.size == out.size - 2 && rm("price_sum") == 5.0)
    assert(out - "nope" == out && (out + ("ts" -> 0L))("ts") == 0L)
  }

  test("once insert returns, a request sees the row in every pre-aggregated feature, inside and at each edge") {
    val spec = FeatureSpec("t", Seq(WindowDef("w", "k", "ts", 10000L)),
      Seq(Feature("n", FeatureFn.Count, "w"), Feature("s", FeatureFn.Sum("v"), "w"),
          Feature("lo", FeatureFn.Min("v"), "w"), Feature("hi", FeatureFn.Max("v"), "w")))
    val pa  = new PreAggTable(Seq(100L, 1000L))
    val eng = new RequestEngine(spec, Map("t" -> new OnlineTable("k", "ts")), Map(("w", "v") -> pa))
    history(0, eng)
    assert(pa.bucketCount > 0)
    // A request at 20050 reads [10050, 20050]: covered [10100, 20000),
    // left edge [10050, 10099] in bucket 10000, right edge [20000, 20050]
    // in bucket 20000. Each row is the first of its finest bucket.
    val req = probeRow(20050, 0.0)
    var (n, sum, lo, hi) = (1L, 0.0, 0.0, 0.0)
    Seq(10060L -> -3.0, 20010L -> 7.0, 15000L -> 2.0, 10099L -> -5.0, 20050L -> 9.0, 10100L -> 1.0).foreach {
      case (ts, v) =>
        eng.insert("t", probeRow(ts, v))
        n += 1; sum += v; lo = math.min(lo, v); hi = math.max(hi, v)
        val out = eng.request(req)
        assert(out("n") == n && out("s") == sum && out("lo") == lo && out("hi") == hi, s"after the row at $ts: $out")
    }
    assert(pa.lastQueryBuckets > 0)
    eng.insert("t", probeRow(10040, 100.0)) // in the left edge's bucket, before the window
    assert(eng.request(req)("n") == n && eng.request(req)("hi") == hi)
  }


  // --------------------------------------------------- lazy pre-aggregation

  private val lazySpec = FeatureSpec("t", Seq(WindowDef("w", "k", "ts", 1000L)),
    Seq(Feature("n", FeatureFn.Count, "w"), Feature("s", FeatureFn.Sum("v"), "w"), Feature("a", FeatureFn.Avg("v"), "w"),
        Feature("lo", FeatureFn.Min("v"), "w"), Feature("hi", FeatureFn.Max("v"), "w")))
  private val lazyFeatures = Seq("n", "s", "a", "lo", "hi")

  /** An engine over `lazySpec` and its table, pre-aggregated by `pa` if given. */
  private def lazyEngine(pa: PreAggTable = null, name: String = "t"): (RequestEngine, OnlineTable) = {
    val t = new OnlineTable("k", "ts")
    val spec = lazySpec.copy(primary = name)
    (new RequestEngine(spec, Map(name -> t), if (pa == null) Map.empty else Map(("w", "v") -> pa)), t)
  }
  private def kRow(k: Long, ts: Long, v: java.lang.Double): Map[String, Any] = Map("k" -> k, "ts" -> ts, "v" -> v)

  /** Today's tolerance: counts, mins and maxes equal; sums and averages
    * within 1e-9, where NaN matches NaN and an infinity itself.
    */
  private def sameFeature(f: String, p: Any, r: Any): Boolean = (p, r) match {
    case (x: Double, y: Double) if f == "s" || f == "a" => (x.isNaN && y.isNaN) || x == y || math.abs(x - y) < 1e-9
    case (x, y)                                          => x == y
  }

  test("a key below BuildRows rows holds no buckets, and every pre-aggregated feature answers as the raw fold") {
    val pa = new PreAggTable(Seq(10L, 100L))
    val (pre, _) = lazyEngine(pa)
    val (raw, _) = lazyEngine()
    val reqs = Seq(kRow(1, 500, 3.0), kRow(1, 999, null), kRow(1, 1200, -1.0), kRow(2, 500, 1.0))
    def agree(): Unit = reqs.foreach { req =>
      val (p, r) = (pre.request(req), raw.request(req))
      lazyFeatures.foreach(f => assert(sameFeature(f, p(f), r(f)), s"$f for $req: $p vs $r"))
    }
    (0 until PreAggTable.BuildRows - 1).foreach { i =>
      val row = kRow(1, 37L * i + 400, if (i % 5 == 4) null else (i * 7 % 11).toDouble)
      pre.insert("t", row); raw.insert("t", row)
      assert(pa.bucketCount == 0)
      agree()
    }
    pre.request(kRow(1, 999, 1.0))
    assert(pa.lastQueryBuckets == 0 && pa.lastQueryRawRows == PreAggTable.BuildRows - 1)
    val last = kRow(1, 37L * (PreAggTable.BuildRows - 1) + 400, 2.5)
    pre.insert("t", last); raw.insert("t", last)
    assert(pa.bucketCount > 0)
    agree()
    pre.request(kRow(1, 999, 1.0))
    assert(pa.lastQueryBuckets > 0)
  }

  test("property: across the BuildRows-th row, a lazily pre-aggregated engine answers as the raw fold after every insert") {
    import org.scalacheck.{Gen, Prop, Test => SCTest}
    // a few keys; ts out of order with ties; values with nulls, NaN,
    // infinities and both zeros
    val value: Gen[java.lang.Double] = Gen.frequency(
      2 -> Gen.const(null),
      1 -> Gen.oneOf(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity, -0.0, 0.0).map(Double.box),
      8 -> Gen.chooseNum(-20, 20).map(i => Double.box(i.toDouble)))
    val row  = Gen.zip(Gen.choose(0L, 2L), Gen.choose(0L, 60L).map(_ * 25), value)
    val rows = Gen.choose(20, 90).flatMap(Gen.listOfN(_, row))
    val reqAt = Gen.listOfN(3, Gen.choose(0L, 2600L))
    val p = Prop.forAll(rows, reqAt, value) { (rows, ats, reqV) =>
      val pa = new PreAggTable(Seq(10L, 50L, 200L))
      val (pre, _) = lazyEngine(pa)
      val (raw, _) = lazyEngine()
      var stored = Vector.empty[(Long, Long, java.lang.Double)]
      rows.forall { case (k, ts, v) =>
        pre.insert("t", kRow(k, ts, v)); raw.insert("t", kRow(k, ts, v))
        stored :+= ((k, ts, v))
        ats.forall { at =>
          val t = ts + at - 1300
          val req = kRow(k, t, reqV)
          val (p, r) = (pre.request(req), raw.request(req))
          // The raw fold keeps a NaN that comes first in the frame as the
          // min and max; pre-aggregation ignores NaN there. Outside that
          // case both agree; there, min and max fold the non-NaN values.
          val frame = stored.zipWithIndex.collect { case ((kk, tt, vv), i) if kk == k && tt >= t - 1000 && tt <= t => (tt, -i, vv) }
            .sortBy(x => (x._1, x._2)).map(_._3) :+ reqV
          val firstNaN = frame.find(_ != null).exists(_.isNaN)
          val nums = frame.filter(v => v != null && !v.isNaN).map(_.doubleValue)
          lazyFeatures.forall { f =>
            val ok =
              if (firstNaN && f == "lo") p(f) == (if (nums.isEmpty) Double.PositiveInfinity else nums.min)
              else if (firstNaN && f == "hi") p(f) == (if (nums.isEmpty) Double.NegativeInfinity else nums.max)
              else sameFeature(f, p(f), r(f))
            if (!ok) println(s"$f after ${stored.size} rows, request $req: pre-agg ${p(f)}, raw ${r(f)}")
            ok
          }
        }
      } && (0L to 2L).forall { k => // a key below BuildRows rows holds no buckets
        stored.count(_._1 == k) >= PreAggTable.BuildRows || pa.queryRows(k.toString, 0, 2000, (_, _, _) => ()).rows == 0
      }
    }
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(60), p)
    assert(res.passed, res.status.toString)
  }

  test("concurrent writers on each key across the BuildRows-th row, with readers running, count every row once") {
    import java.util.concurrent.{ConcurrentLinkedQueue, CountDownLatch}
    val pa = new PreAggTable(Seq(10L, 100L))
    val (eng, table) = lazyEngine(pa)
    val (keys, writers, perWriter) = (10, 4, 200)
    // writer w stores ts w, w + 4, ..; every seventh row is null-valued
    def rowOf(k: Int, w: Int, i: Int): Map[String, Any] = {
      val ts = (writers * i + w).toLong
      kRow(k, ts, if (ts % 7 == 3) null else Double.box((ts * 13 % 101 - 50).toDouble))
    }
    val go = new CountDownLatch(1)
    val errors = new ConcurrentLinkedQueue[Throwable]()
    @volatile var writing = true
    val ws = (0 until writers).map { w =>
      new Thread(() => { go.await(); (0 until perWriter).foreach(i => (0 until keys).foreach(k => eng.insert("t", rowOf(k, w, i)))) })
    }
    val rs = (0 until 2).map { r =>
      new Thread(() => {
        go.await()
        var i = 0
        while (writing) {
          try {
            val out = eng.request(kRow(i % keys, 999, null))
            assert(out("n").asInstanceOf[Long] <= 1000L + 1)
          } catch { case e: Throwable => errors.add(e) }
          i += 1
        }
      })
    }
    (ws ++ rs).foreach(_.start()); go.countDown()
    ws.foreach(_.join()); writing = false; rs.foreach(_.join())
    assert(errors.isEmpty, errors.toString)
    (0 until keys).foreach { k =>
      val all = for (w <- 0 until writers; i <- 0 until perWriter) yield rowOf(k, w, i)("v").asInstanceOf[java.lang.Double]
      val vs = all.filter(_ != null).map(_.doubleValue)
      val out = eng.request(kRow(k, 999, null))
      assert(out("n") == all.size + 1L && out("s") == vs.sum && out("lo") == vs.min && out("hi") == vs.max, s"key $k: $out")
      assert(pa.lastQueryBuckets > 0)
      val part = pa.queryRows(k.toString, 0, 999, (l, h, acc) =>
        table.scan(k.toString, l, h).foreach { case (_, r) => r("v") match { case null => acc.addNull(); case v: Double => acc.add(v) } })
      assert(part.rows == all.size && part.cnt == vs.size && part.sum == vs.sum, s"key $k")
    }
  }

  test("a bound pre-aggregation fed by a table put and then a direct insert answers as one fed by RequestEngine.insert") {
    val (paEng, paDirect) = (new PreAggTable(Seq(10L, 100L)), new PreAggTable(Seq(10L, 100L)))
    val (eng, _) = lazyEngine(paEng)
    val (direct, table) = lazyEngine(paDirect)
    val rnd = new scala.util.Random(5)
    (0 until 120).foreach { i =>
      val k = rnd.nextInt(3).toLong
      val ts = rnd.nextInt(60) * 20L
      val v: java.lang.Double = if (rnd.nextInt(6) == 0) null else Double.box(rnd.nextInt(41) - 20.0)
      eng.insert("t", kRow(k, ts, v))
      table.put(kRow(k, ts, v))
      if (v == null) paDirect.insertNull(k.toString, ts) else paDirect.insert(k.toString, ts, v)
      assert(paDirect.bucketCount == paEng.bucketCount, s"after row $i")
      (0L until 3L).foreach { q =>
        val req = kRow(q, rnd.nextInt(1400).toLong, 1.0)
        assert(direct.request(req) == eng.request(req), s"after row $i, request $req")
      }
    }
    assert(paDirect.bucketCount > 0)
    val e = intercept[IllegalArgumentException](paDirect.insert("9", 5L, 1.0))
    assert(e.getMessage.contains("key 9") && e.getMessage.contains("table t"), e.getMessage)
  }

  test("binding a pre-aggregation to a second table or column fails, naming both") {
    val pa = new PreAggTable(Seq(10L))
    val (_, t) = lazyEngine(pa)
    new RequestEngine(lazySpec, Map("t" -> t), Map(("w", "v") -> pa)) // the same table and column again
    val other = intercept[IllegalArgumentException](lazyEngine(pa, name = "u"))
    Seq("column v of table t", "column v of table u").foreach(m => assert(other.getMessage.contains(m), other.getMessage))
    val minOfW = lazySpec.copy(features = Seq(Feature("m", FeatureFn.Min("w"), "w")))
    val col = intercept[IllegalArgumentException](new RequestEngine(minOfW, Map("t" -> t), Map(("w", "w") -> pa)))
    Seq("column v of table t", "column w of table t").foreach(m => assert(col.getMessage.contains(m), col.getMessage))
  }
}
