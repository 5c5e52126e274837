package featbench

/** Order statistics with the sample-count rule the benchmark reports by:
  * a percentile is only quoted when at least [[MinBeyond]] samples lie
  * strictly above its rank, so a tail figure never rests on one or two
  * outliers.
  */
object Stats {
  val MinBeyond = 10

  /** Nearest-rank percentile of an ascending array: the value at rank
    * ceil(p/100 * n), 1-based.
    */
  def percentile(sorted: Array[Double], p: Double): Double = {
    require(sorted.nonEmpty, "percentile of no samples")
    sorted(rank(sorted.length, p) - 1)
  }

  def rank(n: Int, p: Double): Int =
    math.max(1, math.min(n, math.ceil(p / 100.0 * n - 1e-9).toInt))

  /** Samples strictly above the p-th percentile's rank. */
  def beyond(n: Int, p: Double): Int = n - rank(n, p)

  /** The highest of the candidate percentiles that keeps at least
    * [[MinBeyond]] samples beyond it, or None when even the median does not.
    */
  def tailPercentile(n: Int, candidates: Seq[Double] = Seq(99.9, 99.0, 90.0, 50.0)): Option[Double] =
    candidates.sorted.reverse.find(p => beyond(n, p) >= MinBeyond)

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted.toArray
    val n = s.length
    require(n > 0, "median of no samples")
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  def sortedCopy(xs: Array[Double]): Array[Double] = {
    val c = xs.clone(); java.util.Arrays.sort(c); c
  }

  /** Latency summary of one sample set: median and the highest
    * percentile that passes the sample-count rule.
    */
  final case class Summary(n: Int, p50: Double, tailP: Double, tail: Double) {
    def toJson: Json.Obj =
      Json.Obj("samples" -> n, "p50" -> p50, "tail_percentile" -> tailP,
        "tail" -> tail, "samples_beyond_tail" -> beyond(n, tailP))
  }

  def summary(samples: Array[Double]): Summary = {
    val s = sortedCopy(samples)
    val tp = tailPercentile(s.length).getOrElse(50.0)
    Summary(s.length, percentile(s, 50), tp, percentile(s, tp))
  }

  /** Run `batch` until its time stops falling: at least `minBatches`, at
    * most `maxBatches`, stopping once the best of the last three batches is
    * not 3% faster than the best before them. Returns per-batch seconds.
    */
  def warmUntilSteady(minBatches: Int, maxBatches: Int)(batch: Int => Unit): Seq[Double] = {
    val times = scala.collection.mutable.ArrayBuffer.empty[Double]
    def steady = times.size >= math.max(minBatches, 4) &&
      times.takeRight(3).min >= 0.97 * times.dropRight(3).min
    while (times.size < maxBatches && !steady) {
      val t0 = System.nanoTime()
      batch(times.size)
      times += (System.nanoTime() - t0) / 1e9
    }
    times.toSeq
  }
}

/** A minimal JSON writer: the benchmark's result line and run record. */
object Json {
  sealed trait Value { def render: String }
  final case class Obj(fields: (String, Any)*) extends Value {
    def render: String = fields.map { case (k, v) => s"${str(k)}: ${Json.render(v)}" }.mkString("{", ", ", "}")
    def ++(o: Obj): Obj = Obj((fields ++ o.fields): _*)
  }

  def str(s: String): String = {
    val sb = new StringBuilder("\"")
    s.foreach {
      case '"'  => sb.append("\\\"")
      case '\\' => sb.append("\\\\")
      case '\n' => sb.append("\\n")
      case c if c < ' ' => sb.append(f"\\u${c.toInt}%04x")
      case c    => sb.append(c)
    }
    sb.append('"').toString
  }

  def render(v: Any): String = v match {
    case null              => "null"
    case j: Value          => j.render
    case s: String         => str(s)
    case b: Boolean        => b.toString
    case d: Double         => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n: Int            => n.toString
    case n: Long           => n.toString
    case xs: Iterable[_]   => xs.map(render).mkString("[", ", ", "]")
    case other             => str(other.toString)
  }
}
