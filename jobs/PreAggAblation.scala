package repro.jobs

/** spark-submit entrypoint for the Figure 10/11-shaped long-window
  * pre-aggregation ablation, and the sweep that places the row count at
  * which a key's buckets are built.
  */
object PreAggAblation {
  def main(args: Array[String]): Unit = {
    println(repro.bench.PreAggAblation.render(repro.bench.PreAggAblation.run()))
    println(repro.bench.PreAggAblation.renderSweep(repro.bench.PreAggAblation.sweep()))
  }
}
