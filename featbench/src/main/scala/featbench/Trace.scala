package featbench

import scala.collection.mutable.ArrayBuffer

/** One timed call at a layer boundary. Spans of one request share
  * `reqId`; `parent` is the id of the span that caused this one (-1 for a
  * root).
  *
  * A `replay` span times a call the benchmark re-issued after its parent
  * returned, standing in for the same call made inside the program
  * (whose internals the benchmark cannot wrap). It therefore lies outside
  * the parent's interval and is subtracted from the parent by duration;
  * ordinary children lie inside the parent and are subtracted by the part
  * of its interval they cover.
  */
final case class Span(id: Int, parent: Int, reqId: Long, name: String,
                      startNs: Long, endNs: Long, replay: Boolean) {
  def durNs: Long = endNs - startNs
  def toJson: Json.Obj = Json.Obj("id" -> id, "parent" -> parent, "req" -> reqId,
    "name" -> name, "start_ns" -> startNs, "end_ns" -> endNs, "replay" -> replay)
}

object Trace {

  /** Self time of `parent`: its duration minus the union of its nested
    * children's intervals (clipped to the parent) minus the durations of
    * its replayed children.
    */
  def selfNs(parent: Span, children: Seq[Span]): Long = {
    val (replays, nested) = children.partition(_.replay)
    val clipped = nested.map(c => (math.max(c.startNs, parent.startNs), math.min(c.endNs, parent.endNs)))
      .filter { case (s, e) => e > s }.sortBy(_._1)
    var covered = 0L
    var curS = Long.MinValue
    var curE = Long.MinValue
    clipped.foreach { case (s, e) =>
      if (s > curE) { if (curE > curS) covered += curE - curS; curS = s; curE = e }
      else curE = math.max(curE, e)
    }
    if (curE > curS) covered += curE - curS
    parent.durNs - covered - replays.map(_.durNs).sum
  }
}

/** In-memory span recorder; spans are written out when the run ends. */
final class Tracer {
  val spans = ArrayBuffer.empty[Span]
  private var nextId = 0

  /** Time `body` as a span; the body receives the new span's id so it can
    * parent further spans.
    */
  def span[T](name: String, parent: Int, reqId: Long, replay: Boolean = false)(body: Int => T): T = {
    val id = nextId; nextId += 1
    val t0 = System.nanoTime()
    val r = body(id)
    spans += Span(id, parent, reqId, name, t0, System.nanoTime(), replay)
    r
  }

  def byName(name: String): Seq[Span] = spans.filter(_.name == name).toSeq

  def children: Map[Int, Seq[Span]] = spans.toSeq.groupBy(_.parent)

  /** Mean self time in microseconds over the spans called `name`. */
  def meanSelfUs(name: String): Double = {
    val kids = children
    val ss = byName(name)
    if (ss.isEmpty) 0.0 else ss.map(s => Trace.selfNs(s, kids.getOrElse(s.id, Nil))).sum / 1e3 / ss.size
  }

  /** Mean duration in microseconds over the spans called `name`. */
  def meanUs(name: String): Double = {
    val ss = byName(name)
    if (ss.isEmpty) 0.0 else ss.map(_.durNs).sum / 1e3 / ss.size
  }

  /** Sum of durations in microseconds of spans called `name`. */
  def totalUs(name: String): Double = byName(name).map(_.durNs).sum / 1e3

  def write(path: java.nio.file.Path): Unit = {
    java.nio.file.Files.createDirectories(path.getParent)
    val w = java.nio.file.Files.newBufferedWriter(path)
    try spans.foreach { s => w.write(s.toJson.render); w.newLine() } finally w.close()
  }
}
