package repro.bench

import java.sql.DriverManager
import scala.util.Random
import repro.core._
import repro.core.online.{OnlineTable, RequestEngine}

/** Figure 6-style online MicroBench: per-request feature latency and
  * single-client throughput, OpenMLDB-style request engine vs. an
  * embedded-SQL baseline (DuckDB over the same data, prepared statements,
  * indexed — the strongest per-request SQL baseline available in this
  * container; the paper's Trino+Redis and MySQL baselines are strictly
  * slower architectures).
  *
  * Workload: three stream tables (actions + two union streams), one
  * window-union count/sum over 5s plus a LAST JOIN against a profile
  * table — the MicroBench shape (multiple windows + last joins).
  */
object OnlineMicro {

  final case class Result(system: String, p50Ms: Double, p99Ms: Double, qps: Double)

  private def percentile(sorted: Array[Double], p: Double): Double =
    sorted(math.min(sorted.length - 1, (p * sorted.length).toInt))

  def run(nRows: Int = 20000, nKeys: Int = 200, nRequests: Int = 2000): Seq[Result] = {
    val rnd = new Random(17)
    val actions = (0 until nRows).map(i => (s"u${rnd.nextInt(nKeys)}", i.toLong, rnd.nextDouble() * 100))
    val orders  = (0 until nRows / 2).map(i => (s"u${rnd.nextInt(nKeys)}", i.toLong * 2, rnd.nextDouble() * 500))
    val profile = (0 until nKeys).map(k => (s"u$k", 0L, s"segment$k"))
    val requests = (0 until nRequests).map(i => (s"u${rnd.nextInt(nKeys)}", nRows.toLong + i))

    // ---------------- OpenMLDB-style request engine
    val spec = FeatureSpec(
      primary = "actions",
      windows = Seq(WindowDef("w5s", "k", "ts", 5000L, unionTables = Seq("orders"))),
      features = Seq(
        Feature("cnt", FeatureFn.Count, "w5s"),
        Feature("s", FeatureFn.Sum("v"), "w5s"),
        Feature("mx", FeatureFn.Max("v"), "w5s")),
      lastJoins = Seq(LastJoinDef("profile", "k", "pts", Seq("seg"), "p_")))
    val tables = Map("actions" -> new OnlineTable("k", "ts"),
                     "orders" -> new OnlineTable("k", "ts"),
                     "profile" -> new OnlineTable("k", "pts"))
    val eng = new RequestEngine(spec, tables)
    actions.foreach { case (k, ts, v) => eng.insert("actions", Map("k" -> k, "ts" -> ts, "v" -> v)) }
    orders.foreach { case (k, ts, v) => eng.insert("orders", Map("k" -> k, "ts" -> ts, "v" -> v)) }
    profile.foreach { case (k, ts, s) => eng.insert("profile", Map("k" -> k, "pts" -> ts, "seg" -> s)) }

    def timeLoop(f: (String, Long) => Unit): (Array[Double], Double) = {
      requests.take(300).foreach { case (k, ts) => f(k, ts) } // warmup
      val lat = new Array[Double](nRequests)
      val t0 = System.nanoTime()
      requests.zipWithIndex.foreach { case ((k, ts), i) =>
        val s = System.nanoTime()
        f(k, ts)
        lat(i) = (System.nanoTime() - s) / 1e6
      }
      val total = (System.nanoTime() - t0) / 1e9
      java.util.Arrays.sort(lat)
      (lat, nRequests / total)
    }

    val (engLat, engQps) = timeLoop { (k, ts) =>
      eng.request(Map("k" -> k, "ts" -> ts, "v" -> 1.0))
    }

    // ---------------- DuckDB baseline
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:")
    val st = conn.createStatement()
    st.execute("CREATE TABLE actions (k VARCHAR, ts BIGINT, v DOUBLE)")
    st.execute("CREATE TABLE orders (k VARCHAR, ts BIGINT, v DOUBLE)")
    st.execute("CREATE TABLE profile (k VARCHAR, pts BIGINT, seg VARCHAR)")
    def load(table: String, rows: Seq[(String, Long, Any)]): Unit = {
      val ps = conn.prepareStatement(s"INSERT INTO $table VALUES (?, ?, ?)")
      rows.foreach { case (k, ts, v) =>
        ps.setString(1, k); ps.setLong(2, ts); ps.setObject(3, v); ps.addBatch()
      }
      ps.executeBatch(); ps.close()
    }
    load("actions", actions); load("orders", orders)
    load("profile", profile.map(p => (p._1, p._2, p._3: Any)))
    st.execute("CREATE INDEX a_idx ON actions(k, ts)")
    st.execute("CREATE INDEX o_idx ON orders(k, ts)")
    val q = conn.prepareStatement(
      """SELECT (SELECT COUNT(*) + 1 FROM u WHERE u.k = ? AND u.ts BETWEEN ? - 5000 AND ?),
        |       (SELECT SUM(v) FROM u WHERE u.k = ? AND u.ts BETWEEN ? - 5000 AND ?),
        |       (SELECT MAX(v) FROM u WHERE u.k = ? AND u.ts BETWEEN ? - 5000 AND ?),
        |       (SELECT seg FROM profile p WHERE p.k = ? AND p.pts <= ? ORDER BY p.pts DESC LIMIT 1)
        |""".stripMargin.replace("FROM u", "FROM (SELECT k, ts, v FROM actions UNION ALL SELECT k, ts, v FROM orders) u"))
    val (duckLat, duckQps) = timeLoop { (k, ts) =>
      q.setString(1, k); q.setLong(2, ts); q.setLong(3, ts)
      q.setString(4, k); q.setLong(5, ts); q.setLong(6, ts)
      q.setString(7, k); q.setLong(8, ts); q.setLong(9, ts)
      q.setString(10, k); q.setLong(11, ts)
      val rs = q.executeQuery(); rs.next(); rs.close()
    }
    conn.close()

    Seq(
      Result("OpenMLDB-repro", percentile(engLat, 0.5), percentile(engLat, 0.99), engQps),
      Result("DuckDB", percentile(duckLat, 0.5), percentile(duckLat, 0.99), duckQps))
  }

  def render(rs: Seq[Result]): String = {
    val sb = new StringBuilder
    sb.append("Online MicroBench (Fig 6 shape): per-request latency + throughput\n")
    sb.append(f"${"system"}%16s ${"p50(ms)"}%10s ${"p99(ms)"}%10s ${"QPS"}%12s\n")
    rs.foreach(r => sb.append(f"${r.system}%16s ${r.p50Ms}%10.3f ${r.p99Ms}%10.3f ${r.qps}%12.0f\n"))
    sb.append(f"speedup (p50): ${rs(1).p50Ms / rs(0).p50Ms}%.1fx; paper reports 10x-20x over DuckDB/Flink\n")
    sb.toString
  }
}
