package org.apache.spark

/** Waits until every queued listener event has been delivered, so that the
  * benchmark's job/task meter is complete before it is read. The listener
  * bus is `private[spark]`; this one-line bridge is the only reason the
  * benchmark has a file in Spark's package.
  */
object BusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
