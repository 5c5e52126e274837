package featbench

import repro.LocalGen
import repro.core.online.{OnlineTable, PreAggTable, RequestEngine}
import repro.core.online.WindowUnionStream.SelfAdjustingUnion

/** Checks on the harness itself: the percentile sample-count rule, the
  * span self-time arithmetic, and that every reference check accepts the
  * program's right answers and rejects a deliberately wrong one.
  */
object SelfTest {
  private var failures = 0

  private def expect(what: String, ok: Boolean): Unit = {
    println(s"${if (ok) "ok  " else "FAIL"} $what")
    if (!ok) failures += 1
  }

  def run(): Boolean = {
    percentiles()
    spans()
    requestChecks()
    offlineChecks()
    unionChecks()
    println(if (failures == 0) "self-test passed" else s"self-test: $failures failed")
    failures == 0
  }

  private def percentiles(): Unit = {
    val xs = Array.tabulate(100)(i => (i + 1).toDouble)
    expect("nearest-rank p50 of 1..100 is 50", Stats.percentile(xs, 50) == 50)
    expect("nearest-rank p99 of 1..100 is 99", Stats.percentile(xs, 99) == 99)
    expect("nearest-rank p100 of 1..100 is 100", Stats.percentile(xs, 100) == 100)
    expect("1000 samples leave 10 beyond p99", Stats.beyond(1000, 99) == 10)
    expect("1000 samples: tail is p99", Stats.tailPercentile(1000).contains(99.0))
    expect("999 samples: tail falls back to p90", Stats.tailPercentile(999).contains(90.0))
    expect("10000 samples: tail is p99.9", Stats.tailPercentile(10000).contains(99.9))
    expect("20 samples: tail is the median", Stats.tailPercentile(20).contains(50.0))
    expect("19 samples: no percentile has 10 beyond", Stats.tailPercentile(19).isEmpty)
    expect("median of an even count averages the middle two", Stats.median(Seq(4.0, 1.0, 3.0, 2.0)) == 2.5)
  }

  private def spans(): Unit = {
    val parent = Span(0, -1, 1, "p", 0, 100, replay = false)
    def nested(id: Int, s: Long, e: Long) = Span(id, 0, 1, "c", s, e, replay = false)
    expect("self time with no children is the duration", Trace.selfNs(parent, Nil) == 100)
    expect("overlapping nested children count once",
      Trace.selfNs(parent, Seq(nested(1, 10, 30), nested(2, 20, 40))) == 70)
    expect("nested children are clipped to the parent",
      Trace.selfNs(parent, Seq(nested(1, 90, 120), nested(2, -5, 5))) == 85)
    expect("replayed children subtract by duration",
      Trace.selfNs(parent, Seq(Span(3, 0, 1, "r", 200, 215, replay = true), nested(1, 10, 40))) == 55)
    val t = new Tracer
    var inner = -1
    t.span("outer", -1, 7) { id => t.span("inner", id, 7) { i => inner = i; Thread.sleep(2) } }
    val outer = t.byName("outer").head
    val child = t.byName("inner").head
    expect("tracer links a child to its parent", child.parent == outer.id && child.id == inner)
    expect("request self time plus children accounts for the request",
      Trace.selfNs(outer, Seq(child)) + child.durNs == outer.durNs)
  }

  private def requestChecks(): Unit = {
    val d = MixedData.generate(11, 40, 3000, 400)
    val tables = Map("actions" -> new OnlineTable("user", "ts"), "orders" -> new OnlineTable("user", "ts"),
      "profile" -> new OnlineTable("user", "pts"))
    val pa = new PreAggTable(MixedData.PreAggLevels)
    val eng = new RequestEngine(MixedData.onlineSpec, tables, Map(("w30d", "amount") -> pa))
    d.profiles.foreach(p => eng.insert("profile", p.row))
    d.actions.foreach(a => eng.insert("actions", a.row))
    d.orders.foreach(o => eng.insert("orders", o.row))
    val responses = d.log.zipWithIndex.flatMap {
      case (InsertAction(a), _) => eng.insert("actions", a.row); None
      case (InsertOrder(o), _)  => eng.insert("orders", o.row); None
      case (Request(a), i)      => Some(i -> eng.request(a.row))
    }.toMap
    val ref = new MixedData.Ref(d.actions ++ d.log.collect { case InsertAction(a) => a },
      d.orders ++ d.log.collect { case InsertOrder(o) => o }, d.profiles)
    def expected(i: Int) = d.log(i) match { case Request(a) => ref.expected(MixedData.onlineSpec, a); case _ => Map.empty[String, Any] }
    val (bad, notes) = RequestWorkload.check(responses, expected)
    expect(s"request reference agrees with the engine on ${responses.size} responses ${notes.mkString}", bad == 0)
    val (i0, r0) = responses.toSeq.sortBy(_._1)
      .find { case (_, r) => r("d_cate") != "" && r("u_cnt").asInstanceOf[Long] > 1 }.get
    for ((name, wrong) <- Seq("u_sum" -> 1e6, "m_cnt" -> -1L, "d_top3" -> "nope", "d_ewavg" -> -1.0,
                              "p_segment" -> null, "d_cate" -> ""))
      expect(s"request check rejects a wrong $name",
        RequestWorkload.check(Map(i0 -> r0.updated(name, wrong)), expected)._1 == 1)
    expect("request check rejects a response missing a feature",
      RequestWorkload.check(Map(i0 -> (r0 - "d_drawdown")), expected)._1 == 1)
    expect("request check rejects a tiny error in a sum",
      RequestWorkload.check(Map(i0 -> r0.updated("m_sum", r0("m_sum").asInstanceOf[Double] * (1 + 1e-6))), expected)._1 == 1)
  }

  private def offlineChecks(): Unit = {
    expect("equal checksums pass", OfflineBatch.checksumFailures(Seq((5L, 9L), (5L, 9L)), 9) == 0)
    expect("a differing checksum fails", OfflineBatch.checksumFailures(Seq((5L, 9L), (6L, 9L)), 9) == 1)
    expect("a wrong row count fails", OfflineBatch.checksumFailures(Seq((5L, 8L), (5L, 8L)), 9) == 2)
    // The sampled-row check is Reference.mismatches, exercised above and here
    // on the offline-only category window.
    val d = MixedData.generate(12, 30, 2000, 0)
    val ref = new MixedData.Ref(d.actions, d.orders, d.profiles)
    val a = d.actions.last
    val e = ref.expected(MixedData.offlineSpec, a)
    expect("sample check passes its own answer", Reference.mismatches(e, e.getOrElse(_, null)).isEmpty)
    expect("sample check rejects a wrong category count",
      Reference.mismatches(e, e.updated("c_cnt", e("c_cnt").asInstanceOf[Long] + 1).getOrElse(_, null)).size == 1)
  }

  private def unionChecks(): Unit = {
    val s = LocalGen.unionStream(20000, 50, 3, 1.2, 5)
    val expected = Reference.unionSums(s.map(_.key).toArray, s.map(_.ts).toArray, s.map(_.value).toArray, 200)
    val got = new SelfAdjustingUnion(2, 200, rebalanceEvery = 1000).run(s)
    expect("union reference agrees with the engine", Reference.unionMismatches(expected, got).isEmpty)
    val wrong = got.clone(); wrong(777) += 0.5
    expect("union check rejects one wrong sum", Reference.unionMismatches(expected, wrong) == Seq(777))
  }
}
