package repro.core.online

import org.scalatest.funsuite.AnyFunSuite

class OnlineTableSpec extends AnyFunSuite {

  private type Row = Map[String, Any]

  /** Equal maps whose values also have the same classes (Scala's `==`
    * alone takes `1 == 1L`).
    */
  private def assertExact(got: Row, want: Row): Unit = {
    assert(got == want)
    want.foreach { case (k, v) =>
      if (v == null) assert(got(k) == null, k)
      else assert(got(k) != null && got(k).getClass == v.getClass, s"$k: ${got(k)} vs $v (${v.getClass})")
    }
  }

  /** Every row of key `k`, oldest first. */
  private def all(t: OnlineTable, k: String = "1"): Seq[Row] =
    t.scan(k, Long.MinValue, Long.MaxValue).map(_._2).toSeq.reverse

  private def putAll(t: OnlineTable, rows: Seq[Row]): Unit = {
    rows.foreach(t.put)
    val got = all(t)
    assert(got.size == rows.size)
    got.zip(rows).foreach { case (g, w) => assertExact(g, w) }
  }

  test("scan and latest return what was put, classes included") {
    val t = new OnlineTable("k", "ts")
    val rows = Seq[Row](
      Map("k" -> 1L, "ts" -> 100L, "d" -> 1.5, "s" -> "héllo", "b" -> true, "i" -> 7, "f" -> 2.5f,
        "h" -> 3.toShort),
      Map("k" -> 1L, "ts" -> 200L, "d" -> -0.0, "s" -> "", "b" -> false, "i" -> -7, "f" -> 0f,
        "h" -> (-3).toShort))
    putAll(t, rows)
    assertExact(t.latest("1", 150L).get._2, rows(0))
    assert(t.latest("1", 99L).isEmpty && t.latest("2", 500L).isEmpty)
  }

  test("a first row with a null column, then values in it") {
    val t = new OnlineTable("k", "ts")
    putAll(t, Seq[Row](Map("k" -> 1L, "ts" -> 800L, "v" -> null), Map("k" -> 1L, "ts" -> 900L, "v" -> 2.0),
      Map("k" -> 1L, "ts" -> 1000L, "v" -> null), Map("k" -> 1L, "ts" -> 1100L, "v" -> 3.0)))
  }

  test("a later row that adds a column, and one that lacks it again") {
    val t = new OnlineTable("k", "ts")
    putAll(t, Seq[Row](Map("k" -> 1L, "ts" -> 1L, "a" -> "x"), Map("k" -> 1L, "ts" -> 2L, "a" -> "y", "b" -> 5.0),
      Map("k" -> 1L, "ts" -> 3L, "a" -> "z")))
  }

  test("an Int column that later holds a Long keeps both classes") {
    val t = new OnlineTable("k", "ts")
    putAll(t, Seq[Row](Map("k" -> 1L, "ts" -> 1L, "v" -> 1), Map("k" -> 1L, "ts" -> 2L, "v" -> 2L),
      Map("k" -> 1L, "ts" -> 3L, "v" -> 3), Map("k" -> 1L, "ts" -> 4L, "v" -> null)))
  }

  test("concurrent inserts across layout bumps keep every row exact") {
    val t = new OnlineTable("k", "ts")
    val threads = 4
    val perThread = 2000
    // Each thread's rows switch between its own shapes, so layouts are
    // added while the other threads insert.
    def row(th: Int, i: Int): Row = {
      val base = Map[String, Any]("k" -> s"k$th", "ts" -> i.toLong, "v" -> (if (i % 3 == 0) i else i.toLong))
      if (i % 5 == 0) base + (s"extra$th" -> s"e$i") else base
    }
    val start = new java.util.concurrent.CountDownLatch(1)
    val ts = (0 until threads).map { th =>
      new Thread(() => { start.await(); (0 until perThread).foreach(i => t.put(row(th, i))) })
    }
    ts.foreach(_.start()); start.countDown(); ts.foreach(_.join())
    assert(t.rows == threads * perThread && t.keys == threads)
    (0 until threads).foreach { th =>
      val got = all(t, s"k$th")
      assert(got.size == perThread)
      got.zip((0 until perThread).map(row(th, _))).foreach { case (g, w) => assertExact(g, w) }
    }
  }

  test("a 64th layout fails naming the table") {
    val t = new OnlineTable("k", "ts")
    val eng = new RequestEngine(repro.core.FeatureSpec("clicks", Nil, Nil), Map("clicks" -> t))
    (1 to 63).foreach(i => eng.insert("clicks", Map("k" -> 1L, "ts" -> i.toLong, s"c$i" -> i)))
    val e = intercept[IllegalArgumentException](eng.insert("clicks", Map("k" -> 1L, "ts" -> 64L, "c64" -> 64)))
    assert(e.getMessage.contains("clicks") && e.getMessage.contains("64th"), e.getMessage)
    assert(t.rows == 63)
  }

  test("a value of an unsupported class fails naming the table and the column") {
    val t = new OnlineTable("k", "ts")
    val e = intercept[IllegalArgumentException](t.put(Map("k" -> 1L, "ts" -> 1L, "when" -> new java.util.Date(0))))
    assert(e.getMessage.contains(t.toString) && e.getMessage.contains("'when'"), e.getMessage)
  }

  test("keys, rows and encodedBytes count the stored encodings") {
    val t = new OnlineTable("user", "ts")
    assert(t.keys == 0 && t.rows == 0 && t.encodedBytes == 0)
    def action(u: String, ts: Long): Row = Map("user" -> u, "ts" -> ts, "amount" -> 123.45, "item" -> "i42",
      "price" -> 55.5, "flag" -> true, "category" -> "c0")
    t.put(action("u1234", 1L))
    // header 6 + bitmap 1 + fixed 8+8+8+1 + 3 one-byte offsets + string data 5+3+2
    assert(t.encodedBytes == 45)
    t.put(action("u1234", 2L)); t.put(action("u9", 3L))
    assert(t.keys == 2 && t.rows == 3 && t.encodedBytes == 45 + 45 + 42)
  }
}
