package featbench

import scala.util.Random
import repro.LocalGen
import repro.core._

/** One row of the primary `actions` table. */
final case class Action(user: String, ts: Long, amount: Double, item: String, price: Double,
                        flag: Boolean, category: String) {
  def row: Map[String, Any] = Map("user" -> user, "ts" -> ts, "amount" -> amount, "item" -> item,
    "price" -> price, "flag" -> flag, "category" -> category)
}

/** One row of the `orders` table that the 10-minute window unions in. */
final case class Order(user: String, ts: Long, amount: Double) {
  def row: Map[String, Any] = Map("user" -> user, "ts" -> ts, "amount" -> amount)
}

/** One row of the `profile` table the LAST JOIN reads. */
final case class Profile(user: String, pts: Long, segment: String, score: Double) {
  def row: Map[String, Any] = Map("user" -> user, "pts" -> pts, "segment" -> segment, "score" -> score)
}

/** A replayed log event: an insert into `actions` or `orders`, or a
  * feature request carrying an `actions`-shaped row.
  */
sealed trait Event { def user: String; def ts: Long }
final case class InsertAction(a: Action) extends Event { def user = a.user; def ts = a.ts }
final case class InsertOrder(o: Order) extends Event { def user = o.user; def ts = o.ts }
final case class Request(a: Action) extends Event { def user = a.user; def ts = a.ts }

/** The Fig 6 MicroBench shape shared by `request-mixed` and
  * `offline-batch`: a 10-minute WINDOW UNION over `orders`, a 1-day
  * window of the order-sensitive and categorical functions, a 30-day
  * window (bound to a pre-aggregation online) and a LAST JOIN to
  * `profile`.
  */
object MixedData {
  val Day: Long = 86400000L
  val T0: Long = 1700000000000L
  val PreAggLevels: Seq[Long] = Seq(60000L, 3600000L, Day)
  val Categories: IndexedSeq[String] = (0 until 5).map(i => s"c$i")
  // Cumulative shares of the five categories: one category holds over half
  // the rows, which makes `category` a skewed partition key offline.
  private val categoryCum = Array(0.55, 0.75, 0.87, 0.95, 1.0)

  val onlineSpec: FeatureSpec = FeatureSpec(
    primary = "actions",
    windows = Seq(
      WindowDef("w10m", "user", "ts", 10 * 60000L, unionTables = Seq("orders")),
      WindowDef("w1d", "user", "ts", Day),
      WindowDef("w30d", "user", "ts", 30 * Day)),
    features = Seq(
      Feature("u_cnt", FeatureFn.Count, "w10m"),
      Feature("u_sum", FeatureFn.Sum("amount"), "w10m"),
      Feature("u_max", FeatureFn.Max("amount"), "w10m"),
      Feature("u_avg", FeatureFn.Avg("amount"), "w10m"),
      Feature("d_distinct", FeatureFn.DistinctCount("item"), "w1d"),
      Feature("d_top3", FeatureFn.TopNFreq("item", 3), "w1d"),
      Feature("d_ewavg", FeatureFn.EwAvg("price", 0.3), "w1d"),
      Feature("d_drawdown", FeatureFn.Drawdown("price"), "w1d"),
      Feature("d_cate", FeatureFn.AvgCateWhere("amount", "flag", "category"), "w1d"),
      Feature("m_sum", FeatureFn.Sum("amount"), "w30d"),
      Feature("m_avg", FeatureFn.Avg("amount"), "w30d"),
      Feature("m_max", FeatureFn.Max("amount"), "w30d"),
      Feature("m_cnt", FeatureFn.Count, "w30d")),
    lastJoins = Seq(LastJoinDef("profile", "user", "pts", Seq("segment", "score"), "p_")))

  /** The offline spec adds a window keyed by the skewed `category`. */
  val offlineSpec: FeatureSpec = onlineSpec.copy(
    windows = onlineSpec.windows :+ WindowDef("wcat", "category", "ts", 3600000L),
    features = onlineSpec.features ++ Seq(
      Feature("c_cnt", FeatureFn.Count, "wcat"),
      Feature("c_sum", FeatureFn.Sum("amount"), "wcat")))

  final case class Data(actions: IndexedSeq[Action], orders: IndexedSeq[Order],
                        profiles: IndexedSeq[Profile], log: IndexedSeq[Event]) {
    def storedRows: Long = actions.size.toLong + orders.size + profiles.size
  }

  /** `preload` stored rows spread over 30 days (3 actions to 1 order),
    * then a log of `logEvents` events continuing at the same rate, half
    * requests. Users are zipf(1.1) over `users`. Every timestamp is
    * distinct and the log is time-ordered, so no two rows of a key tie;
    * there are no nulls.
    */
  def generate(seed: Long, users: Int, preload: Int, logEvents: Int): Data = {
    val zipf = new LocalGen.Zipf(users, 1.1, seed)
    val rnd = new Random(seed * 31 + 7)
    val meanGap = math.max(2L, 30 * Day / math.max(1, preload))
    var ts = T0
    def nextTs(): Long = { ts += 1 + rnd.nextLong(2 * meanGap - 1); ts }
    def category(): String = {
      val u = rnd.nextDouble(); Categories(categoryCum.indexWhere(u < _))
    }
    def action(): Action = Action(s"u${zipf.next()}", nextTs(), math.rint(rnd.nextDouble() * 50000) / 100,
      s"i${rnd.nextInt(200)}", 10 + rnd.nextDouble() * 100, rnd.nextBoolean(), category())
    def order(): Order = Order(s"u${zipf.next()}", nextTs(), math.rint(rnd.nextDouble() * 50000) / 100)

    val actions = IndexedSeq.newBuilder[Action]
    val orders = IndexedSeq.newBuilder[Order]
    (0 until preload).foreach { _ => if (rnd.nextInt(4) < 3) actions += action() else orders += order() }
    val log = (0 until logEvents).map { _ =>
      if (rnd.nextBoolean()) Request(action())
      else if (rnd.nextInt(4) < 3) InsertAction(action())
      else InsertOrder(order())
    }
    // Two profile versions per user: one before the data starts and one
    // within the first fortnight, so LAST JOIN hits either.
    val profiles = (1 to users).flatMap { u =>
      Seq(Profile(s"u$u", T0 - u, s"seg${rnd.nextInt(20)}", rnd.nextDouble()),
        Profile(s"u$u", T0 + 1 + rnd.nextLong(15 * Day), s"seg${rnd.nextInt(20)}", rnd.nextDouble()))
    }
    Data(actions.result(), orders.result(), profiles, log)
  }

  /** Brute-force lookups over every row the program was given. */
  final class Ref(actions: Iterable[Action], orders: Iterable[Order], profiles: Iterable[Profile]) {
    private val actionRows = actions.map(_.row).toIndexedSeq
    private val byKey = scala.collection.mutable.HashMap.empty[String, Reference.KeyIndex]
    private def actionIndex(keyCol: String) =
      byKey.getOrElseUpdate(keyCol, new Reference.KeyIndex(actionRows, keyCol, "ts"))
    private val orderIndex = new Reference.KeyIndex(orders.map(_.row), "user", "ts")
    private val profileIndex = new Reference.KeyIndex(profiles.map(_.row), "user", "pts")

    /** Expected output for one request (or primary) row at `a.ts`: stored
      * frames hold the rows strictly older than it.
      */
    def expected(spec: FeatureSpec, a: Action): Map[String, Any] = {
      val req = a.row
      Reference.expected(spec, req,
        w => {
          val key = String.valueOf(req(w.keyCol))
          val own = actionIndex(w.keyCol).range(key, a.ts - w.rangeMs, a.ts - 1)
          if (w.unionTables.isEmpty) own
          else (own ++ orderIndex.range(key, a.ts - w.rangeMs, a.ts - 1))
            .sortBy(_("ts").asInstanceOf[Long])
        },
        lj => profileIndex.latest(String.valueOf(req(lj.keyCol)), a.ts))
    }
  }
}
